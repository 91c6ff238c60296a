package transport

import (
	"bufio"
	"context"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// udpRcvbufErrors reads the host's count of datagrams dropped for want of
// receive buffer (/proc/net/snmp, Udp: RcvbufErrors); ok is false where it
// cannot be read.
func udpRcvbufErrors() (n int64, ok bool) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, name := range header {
			if name == "RcvbufErrors" && i < len(fields) {
				n, err := strconv.ParseInt(fields[i], 10, 64)
				return n, err == nil
			}
		}
	}
	return 0, false
}

// rcvbufOf returns the kernel's receive buffer size for conn.
func rcvbufOf(t *testing.T, conn *net.UDPConn) int {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return size
}

// TestUDPBurstIntoStalledReader: with no linger in front of it, the kernel
// queue is all that stands between a pipelining sender and a read loop that
// is not getting the processor. Sixteen 128-deep windows of calls — the
// depth a leaf's path messages reach while a fleet registers — arrive as
// 2048 single-envelope datagrams — the sender's cap is one envelope per
// datagram — at a node whose read loop is held still; the 208 KiB default
// buffer keeps 256 of them. Nothing may be lost.
func TestUDPBurstIntoStalledReader(t *testing.T) {
	const depth, rounds = 128, 16
	recv := NewUDPWithOptions(UDPOptions{})
	defer recv.Close()
	srv, err := recv.Attach("srv", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	// Linux reports twice the granted size; below the request the host's
	// net.core.rmem_max has clamped it and the burst cannot fit.
	if got := rcvbufOf(t, srv.(*udpNode).conn); got < socketBuffer {
		t.Skipf("receive buffer is %d bytes, net.core.rmem_max allows no more; the burst needs %d", got, socketBuffer)
	}
	sendMet := metrics.NewRegistry()
	send := NewUDPWithOptions(UDPOptions{Metrics: sendMet, BatchMax: 1})
	defer send.Close()
	cli, err := send.Attach("cli", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := route(recv, "srv")
	if err := send.AddRoute("srv", addr); err != nil {
		t.Fatal(err)
	}
	dropsBefore, countable := udpRcvbufErrors()

	// Every read loop of recv stops at its next datagram, in dropIncoming,
	// on the installed Loss's lock; at rate 0 it drops nothing.
	loss := NewLoss(0, 1)
	recv.SetLoss(loss)
	loss.mu.Lock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	pending := make([]*PendingCall, 0, depth*rounds)
	for i := 0; i < depth*rounds; i++ {
		p, err := cli.CallAsync(ctx, "srv", msg.ChangeAccReq{OID: "o", DesAcc: float64(i)})
		if err != nil {
			loss.mu.Unlock()
			t.Fatalf("call %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	loss.mu.Unlock()

	for i, p := range pending {
		resp, err := p.Wait(ctx)
		if err != nil {
			t.Fatalf("call %d of a %d-datagram burst: %v", i, depth*rounds, err)
		}
		if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != float64(i) {
			t.Fatalf("call %d resolved with %#v", i, resp)
		}
	}
	if dropsAfter, _ := udpRcvbufErrors(); countable && dropsAfter != dropsBefore {
		t.Errorf("RcvbufErrors moved by %d during the burst", dropsAfter-dropsBefore)
	}
	dgrams, envs := sendMet.Counter("wire_datagrams_out").Value(), sendMet.Counter("wire_envelopes_out").Value()
	if dgrams != envs || envs != depth*rounds {
		t.Errorf("sender wrote %d datagrams for %d envelopes, want %d of each", dgrams, envs, depth*rounds)
	}
}
