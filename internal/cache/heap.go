package cache

// heapNode is one resident's place in a widthHeap: its key, its original
// width (the eviction rank) and its current index in the heap. The caches
// keep the node beside their own per-key state and hand the heap a pointer.
type heapNode struct {
	key   int
	width float64
	pos   int
}

// wider is the eviction order: the wider original width ranks first, and
// equal widths go to the smaller key. Keys are unique, so the order is total
// and the heap's top is exactly the victim a scan over every resident would
// pick.
func wider(a, b *heapNode) bool {
	return a.width > b.width || (a.width == b.width && a.key < b.key)
}

// widthHeap is an indexed binary max-heap of residents under the wider
// order. Peeking at the victim is O(1); every change to the membership or to
// a resident's width is one O(log κ) sift. Writer-only: neither cache lets
// readers near it.
type widthHeap struct {
	nodes []*heapNode
}

// top returns the widest resident, or nil when the heap is empty.
func (h *widthHeap) top() *heapNode {
	if len(h.nodes) == 0 {
		return nil
	}
	return h.nodes[0]
}

// topExcept returns the widest resident other than key, or nil if there is
// none. When key is on top, the runner-up is the wider of its two children.
func (h *widthHeap) topExcept(key int) *heapNode {
	n := h.top()
	if n == nil || n.key != key {
		return n
	}
	var best *heapNode
	for _, c := range h.nodes[1:min(3, len(h.nodes))] {
		if best == nil || wider(c, best) {
			best = c
		}
	}
	return best
}

// push adds n to the heap.
func (h *widthHeap) push(n *heapNode) {
	n.pos = len(h.nodes)
	h.nodes = append(h.nodes, n)
	h.up(n.pos)
}

// remove takes n out of the heap.
func (h *widthHeap) remove(n *heapNode) {
	i, last := n.pos, len(h.nodes)-1
	h.swap(i, last)
	h.nodes[last] = nil
	h.nodes = h.nodes[:last]
	if i < last {
		h.fix(h.nodes[i])
	}
}

// fix restores the heap order after n's width (or key) changed in place.
func (h *widthHeap) fix(n *heapNode) {
	if !h.down(n.pos) {
		h.up(n.pos)
	}
}

func (h *widthHeap) swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.nodes[i].pos = i
	h.nodes[j].pos = j
}

func (h *widthHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !wider(h.nodes[i], h.nodes[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts node i toward the leaves and reports whether it moved.
func (h *widthHeap) down(i int) bool {
	start, n := i, len(h.nodes)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && wider(h.nodes[r], h.nodes[c]) {
			c = r
		}
		if !wider(h.nodes[c], h.nodes[i]) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > start
}
