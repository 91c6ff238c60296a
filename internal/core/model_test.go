package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"locsvc/internal/geo"
)

func TestSightingValidate(t *testing.T) {
	good := Sighting{OID: "o1", T: time.Now(), Pos: geo.Pt(1, 2), SensAcc: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid sighting rejected: %v", err)
	}
	if err := (Sighting{SensAcc: 5}).Validate(); err == nil {
		t.Error("empty oid accepted")
	}
	if err := (Sighting{OID: "o", SensAcc: -1}).Validate(); err == nil {
		t.Error("negative sensor accuracy accepted")
	}
	// What a store cannot keep — a non-finite number, a time UnixNano
	// cannot represent — is refused; the range's own ends are kept.
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []Sighting{
		{OID: "o", SensAcc: nan},
		{OID: "o", SensAcc: inf},
		{OID: "o", Pos: geo.Pt(nan, 0)},
		{OID: "o", Pos: geo.Pt(0, -inf)},
		{OID: "o", T: time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{OID: "o", T: time.Date(1677, 1, 1, 0, 0, 0, 0, time.UTC)},
		{OID: "o", T: time.Unix(0, math.MinInt64)},
		{OID: "o", T: time.Unix(0, math.MaxInt64).Add(1)},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
	for _, at := range []time.Time{{}, time.Unix(0, math.MinInt64+1), time.Unix(0, math.MaxInt64)} {
		if err := (Sighting{OID: "o", T: at}).Validate(); err != nil {
			t.Errorf("timestamp %v refused: %v", at, err)
		}
	}
}

func TestLocationDescriptorArea(t *testing.T) {
	ld := LocationDescriptor{Pos: geo.Pt(10, 20), Acc: 30}
	c := ld.Area()
	if c.C != geo.Pt(10, 20) || c.R != 30 {
		t.Errorf("Area = %+v", c)
	}
}

func TestLocationDescriptorAged(t *testing.T) {
	t0 := time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)
	ld := LocationDescriptor{Pos: geo.Pt(0, 0), Acc: 10}

	aged := ld.Aged(t0, t0.Add(10*time.Second), 2) // 2 m/s for 10 s
	if math.Abs(aged.Acc-30) > 1e-12 {
		t.Errorf("aged acc = %v, want 30", aged.Acc)
	}
	// No aging backwards in time or with zero speed.
	if got := ld.Aged(t0, t0.Add(-time.Second), 2); got.Acc != 10 {
		t.Errorf("backwards aging changed acc to %v", got.Acc)
	}
	if got := ld.Aged(t0, t0.Add(time.Hour), 0); got.Acc != 10 {
		t.Errorf("zero-speed aging changed acc to %v", got.Acc)
	}
}

func TestRegInfoValidate(t *testing.T) {
	tests := []struct {
		name string
		ri   RegInfo
		ok   bool
	}{
		{"valid range", RegInfo{DesAcc: 10, MinAcc: 50}, true},
		{"equal bounds", RegInfo{DesAcc: 25, MinAcc: 25}, true},
		{"inverted", RegInfo{DesAcc: 50, MinAcc: 10}, false},
		{"negative", RegInfo{DesAcc: -1, MinAcc: 10}, false},
		{"NaN desired", RegInfo{DesAcc: math.NaN(), MinAcc: 10}, false},
		{"infinite minimum", RegInfo{DesAcc: 10, MinAcc: math.Inf(1)}, false},
		{"NaN speed", RegInfo{DesAcc: 10, MinAcc: 50, MaxSpeed: math.NaN()}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.ri.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestOfferedAcc(t *testing.T) {
	ri := RegInfo{DesAcc: 10, MinAcc: 50}
	tests := []struct {
		achievable float64
		want       float64
		ok         bool
	}{
		// Server better than desired: offer the desired accuracy
		// (max(acc, desAcc), Algorithm 6-1 line 8).
		{5, 10, true},
		// Server within the range: offer what it achieves.
		{25, 25, true},
		{50, 50, true},
		// Server worse than the minimum: registration fails.
		{51, 51, false},
	}
	for _, tt := range tests {
		got, ok := ri.OfferedAcc(tt.achievable)
		if got != tt.want || ok != tt.ok {
			t.Errorf("OfferedAcc(%v) = (%v, %v), want (%v, %v)",
				tt.achievable, got, ok, tt.want, tt.ok)
		}
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{ErrNotFound, ErrAccuracy, ErrOutOfArea, ErrBadRequest}
	for i, a := range errs {
		for j, b := range errs {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("error identity mismatch between %v and %v", a, b)
			}
		}
	}
}
