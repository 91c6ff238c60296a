package spatial

// heapOf is a flat binary min-heap ordered by a float64 key, shared by the
// best-first traversals of the tree indexes, the nearest-neighbor cursors
// and the multi-shard merge. It replaces the earlier container/heap users:
// entries live inline in one slice, so pushing never boxes a value into an
// interface and a drained heap can be reused without reallocating.
type heapOf[T any] struct {
	es []heapEntry[T]
}

type heapEntry[T any] struct {
	key float64
	val T
}

func (h *heapOf[T]) len() int { return len(h.es) }

// reset empties the heap, keeping its backing array for reuse. Entries
// beyond the new length are zeroed so pooled heaps do not pin tree nodes or
// object ids across uses.
func (h *heapOf[T]) reset() {
	clear(h.es)
	h.es = h.es[:0]
}

func (h *heapOf[T]) push(key float64, val T) {
	h.es = append(h.es, heapEntry[T]{key: key, val: val})
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.es[parent].key <= h.es[i].key {
			break
		}
		h.es[parent], h.es[i] = h.es[i], h.es[parent]
		i = parent
	}
}

// pop removes and returns the minimum entry. The heap must not be empty.
func (h *heapOf[T]) pop() heapEntry[T] {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	var zero heapEntry[T]
	h.es[last] = zero
	h.es = h.es[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// replaceTop overwrites the minimum entry and restores heap order — the
// advance step of a k-way merge, cheaper than pop followed by push.
func (h *heapOf[T]) replaceTop(key float64, val T) {
	h.es[0] = heapEntry[T]{key: key, val: val}
	h.siftDown(0)
}

func (h *heapOf[T]) siftDown(i int) {
	n := len(h.es)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.es[r].key < h.es[l].key {
			m = r
		}
		if h.es[i].key <= h.es[m].key {
			return
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

// MinHeap exposes the package's heap to best-first traversals kept outside
// it (the tiered store's cursor over run-file spatial leaves).
type MinHeap[T any] struct{ h heapOf[T] }

// Len returns the number of entries.
func (m *MinHeap[T]) Len() int { return m.h.len() }

// Push adds val under key.
func (m *MinHeap[T]) Push(key float64, val T) { m.h.push(key, val) }

// Pop removes and returns the entry with the smallest key. The heap must
// not be empty.
func (m *MinHeap[T]) Pop() (key float64, val T) {
	e := m.h.pop()
	return e.key, e.val
}
