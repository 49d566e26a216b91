package netsim

// handlerTable maps FlowID -> Handler for per-packet delivery dispatch. It
// replaces the built-in map on the hot path: open addressing with linear
// probing over a power-of-two slot array means a lookup is one multiply and
// (almost always) one cache line, with no hashing through runtime interfaces.
// Deletion uses backward-shift compaction instead of tombstones, so a host
// that churns many short flows keeps its probe chains dense and its table
// sized by the *peak live* handler count — it cannot grow without bound the
// way an insert-only structure (or a tombstone-accumulating one) would.
type handlerTable struct {
	slots []handlerSlot // power-of-two length, empty until the first put
	mask  uint64
	n     int
}

// handlerSlot is one open-addressed entry; hd == nil marks an empty slot.
type handlerSlot struct {
	flow FlowID
	hd   Handler
}

// handlerTableMinSlots is the initial allocation: most hosts terminate a
// handful of concurrent flows.
const handlerTableMinSlots = 16

// home returns the preferred slot for a flow: a Fibonacci multiply whose
// high bits are taken, which spreads the dense, sequential FlowIDs the
// workload allocators produce uniformly across slots.
func (t *handlerTable) home(f FlowID) uint64 {
	return (uint64(f) * 0x9e3779b97f4a7c15 >> 33) & t.mask
}

// get returns the handler for f, or nil.
func (t *handlerTable) get(f FlowID) Handler {
	if t.n == 0 {
		return nil
	}
	for i := t.home(f); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.hd == nil {
			return nil
		}
		if sl.flow == f {
			return sl.hd
		}
	}
}

// put inserts (f, hd); it reports false when f is already present. hd must
// be non-nil (nil marks emptiness).
func (t *handlerTable) put(f FlowID, hd Handler) bool {
	if len(t.slots) == 0 {
		t.grow(max(handlerTableMinSlots, cap(t.slots)))
	} else if 4*(t.n+1) > 3*len(t.slots) {
		t.grow(2 * len(t.slots))
	}
	for i := t.home(f); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.hd == nil {
			*sl = handlerSlot{flow: f, hd: hd}
			t.n++
			return true
		}
		if sl.flow == f {
			return false
		}
	}
}

// del removes f's entry (no-op when absent), back-shifting the probe chain
// so no tombstone is left behind.
func (t *handlerTable) del(f FlowID) {
	if t.n == 0 {
		return
	}
	i := t.home(f)
	for {
		sl := &t.slots[i]
		if sl.hd == nil {
			return
		}
		if sl.flow == f {
			break
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift: walk the chain after the hole and move back every
	// entry whose home position does not lie strictly after the hole (in
	// circular probe order), then clear the final vacated slot.
	j := i
	for {
		j = (j + 1) & t.mask
		sl := &t.slots[j]
		if sl.hd == nil {
			break
		}
		if (j-t.home(sl.flow))&t.mask >= (j-i)&t.mask {
			t.slots[i] = *sl
			i = j
		}
	}
	t.slots[i] = handlerSlot{}
	t.n--
}

// clear empties the table and keeps its array, behind an empty slice, for the
// next put to take back.
func (t *handlerTable) clear() {
	clear(t.slots)
	*t = handlerTable{slots: t.slots[:0]}
}

// grow rehashes into a table of newSize slots (a power of two). A cleared
// table's first put asks for the size of the array it kept.
func (t *handlerTable) grow(newSize int) {
	old := t.slots
	if len(old) == 0 && cap(old) == newSize {
		t.slots = old[:newSize]
	} else {
		t.slots = make([]handlerSlot, newSize)
	}
	t.mask = uint64(newSize - 1)
	for _, sl := range old {
		if sl.hd == nil {
			continue
		}
		for i := t.home(sl.flow); ; i = (i + 1) & t.mask {
			if t.slots[i].hd == nil {
				t.slots[i] = sl
				break
			}
		}
	}
}
