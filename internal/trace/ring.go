package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ringChunkShift sets the chunk granularity: 32 events per chunk keeps
// the first-emit allocation a few KB (small-object malloc, no large-span
// zeroing) instead of the whole ring.
const (
	ringChunkShift = 5
	ringChunkSize  = 1 << ringChunkShift
)

// ringChunk is one lazily-allocated span of slots. Each slot carries its
// own tiny mutex that only serializes the (rare) case of a writer lapping
// a concurrent reader or a slower writer on the same slot.
type ringChunk struct {
	slots [ringChunkSize]Event
	locks [ringChunkSize]sync.Mutex
}

// Ring is a fixed-capacity, overwrite-oldest event buffer. The write cursor
// is a single atomic counter, so claiming a slot never contends on a lock
// shared with other writers. Capacity is always a power of two so the slot
// index is a mask, not a division.
//
// Slot storage is allocated in chunks on first touch: a tracer that never
// emits costs a few words, and one that emits a little pays for one chunk,
// not capacity*sizeof(Event). This is what keeps machine snapshots cheap —
// every cloned kernel gets its own tracer, and most clones only ever
// emit a handful of events.
type Ring struct {
	capacity int
	mask     uint64
	chunks   []atomic.Pointer[ringChunk]
	// cursor is the next sequence number to be claimed; it only grows.
	cursor atomic.Uint64
}

// NewRing creates a ring with at least the requested capacity, rounded up
// to a power of two (minimum 2). No slot storage is allocated until the
// first Append.
func NewRing(capacity int) *Ring {
	r := &Ring{}
	r.init(capacity)
	return r
}

// init sizes a zero ring, as NewRing does.
func (r *Ring) init(capacity int) {
	n := 2
	for n < capacity {
		n <<= 1
	}
	nChunks := n >> ringChunkShift
	if nChunks == 0 {
		nChunks = 1
	}
	r.capacity, r.mask = n, uint64(n-1)
	r.chunks = make([]atomic.Pointer[ringChunk], nChunks)
}

// Cap returns the ring capacity (a power of two).
func (r *Ring) Cap() int { return r.capacity }

// chunkFor returns slot i's chunk, installing it on first use. Losing the
// install race just means using the winner's chunk.
func (r *Ring) chunkFor(i uint64) *ringChunk {
	p := &r.chunks[i>>ringChunkShift]
	if c := p.Load(); c != nil {
		return c
	}
	fresh := &ringChunk{}
	if p.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return p.Load()
}

// Append claims the next sequence number and stores the event, overwriting
// the event cap slots older. It returns the assigned sequence number.
func (r *Ring) Append(ev Event) uint64 { return r.append(&ev) }

func (r *Ring) append(ev *Event) uint64 {
	seq := r.cursor.Add(1) - 1
	ev.Seq = seq
	i := seq & r.mask
	c := r.chunkFor(i)
	j := i & (ringChunkSize - 1)
	c.locks[j].Lock()
	// A slower writer holding an older claim for this slot must not
	// clobber a newer event that already landed (the cursor, not arrival
	// order, defines age).
	if c.slots[j].Seq <= seq || c.slots[j].Time.IsZero() {
		c.slots[j] = *ev
	}
	c.locks[j].Unlock()
	return seq
}

// Emitted returns the total number of events ever appended.
func (r *Ring) Emitted() uint64 { return r.cursor.Load() }

// Dropped returns how many events have been overwritten (emitted beyond
// capacity). Concurrent in-flight writes may transiently make the retained
// snapshot smaller than Emitted-Dropped; once writers quiesce the identity
// retained == Emitted() - Dropped() holds exactly.
func (r *Ring) Dropped() uint64 {
	n := r.cursor.Load()
	c := uint64(r.capacity)
	if n <= c {
		return 0
	}
	return n - c
}

// Snapshot copies the retained events in sequence order (oldest first).
// Slots mid-overwrite by a concurrent writer are skipped rather than
// returned torn.
func (r *Ring) Snapshot() []Event {
	cur := r.cursor.Load()
	c := uint64(r.capacity)
	start := uint64(0)
	if cur > c {
		start = cur - c
	}
	out := make([]Event, 0, cur-start)
	for seq := start; seq < cur; seq++ {
		i := seq & r.mask
		// A nil chunk holds no stored events — at worst a writer has
		// claimed a seq here but not installed storage yet, which is the
		// same claimed-but-unstored case skipped below.
		ch := r.chunks[i>>ringChunkShift].Load()
		if ch == nil {
			continue
		}
		j := i & (ringChunkSize - 1)
		ch.locks[j].Lock()
		ev := ch.slots[j]
		ch.locks[j].Unlock()
		// The slot may hold an older event (writer claimed seq but has
		// not stored yet) or a newer one (we were lapped); keep only
		// events still inside the snapshot window, dropping duplicates
		// below.
		if ev.Time.IsZero() || ev.Seq < start || ev.Seq >= cur {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	// Deduplicate: lapped reads can observe the same slot generation via
	// two window positions.
	dedup := out[:0]
	for i, ev := range out {
		if i == 0 || ev.Seq != out[i-1].Seq {
			dedup = append(dedup, ev)
		}
	}
	return dedup
}
