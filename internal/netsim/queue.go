package netsim

// Queue is a FIFO byte-bounded drop-tail packet queue with DCTCP-style ECN
// marking: every ECN-capable packet that arrives while the (post-arrival)
// occupancy exceeds MarkK bytes has its CE bit set, mirroring the
// instantaneous single-threshold marking DCTCP configures on commodity
// switches.
type Queue struct {
	// Cap is the maximum occupancy in bytes; 0 means unbounded (lossless).
	Cap int
	// MarkK is the ECN marking threshold in bytes; 0 disables marking.
	MarkK int

	bytes int
	buf   []*Packet
	head  int

	// Counters.
	Enqueued int64
	Dropped  int64
	Marked   int64
	MaxBytes int
}

// Push appends pkt, marking its CE bit if the queue exceeds MarkK. It
// returns false (and counts a drop) if the packet does not fit.
func (q *Queue) Push(pkt *Packet) bool {
	if !q.admit(pkt) {
		return false
	}
	q.append(pkt)
	return true
}

// admit is Push without the FIFO slot: the drop decision, the mark and the
// counters. A port that times the packet's transmission on arrival keeps it
// in its ledger instead, and takes the bytes out again when it starts.
func (q *Queue) admit(pkt *Packet) bool {
	if q.Cap > 0 && q.bytes+pkt.Size > q.Cap {
		q.Dropped++
		return false
	}
	if q.MarkK > 0 && pkt.ECT && q.bytes+pkt.Size > q.MarkK {
		if !pkt.CE {
			q.Marked++
		}
		pkt.CE = true
	}
	q.arrive(pkt.Size)
	return true
}

// arrive counts size admitted bytes: all of admit on a queue that neither
// drops nor marks, where the packet itself need not be at hand.
func (q *Queue) arrive(size int) {
	q.bytes += size
	if q.bytes > q.MaxBytes {
		q.MaxBytes = q.bytes
	}
	q.Enqueued++
}

// append gives an admitted packet its FIFO slot.
func (q *Queue) append(pkt *Packet) { q.buf = append(q.buf, pkt) }

// Pop removes and returns the oldest packet, or nil when empty.
func (q *Queue) Pop() *Packet {
	if q.head >= len(q.buf) {
		return nil
	}
	pkt := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	q.bytes -= pkt.Size
	// Compact lazily so the backing array does not grow without bound.
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return pkt
}

// Bytes returns the current occupancy in bytes.
func (q *Queue) Bytes() int { return q.bytes }

// Len returns the number of queued packets.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Empty reports whether no packets are queued.
func (q *Queue) Empty() bool { return q.Len() == 0 }
