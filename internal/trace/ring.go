package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"protego/internal/errno"
)

// ringChunkShift sets the chunk granularity: 32 slots per chunk keeps
// the first-emit allocation at 2 KB (small-object malloc, no large-span
// zeroing) instead of the whole ring.
const (
	ringChunkShift = 5
	ringChunkSize  = 1 << ringChunkShift
)

// textField names the Event field a slot's side text fills. Every
// producer has at most one text made at run time: an audit line or a
// fault's hit count (Msg), an error that is not a bare errno (Err), or an
// authentication subject (Name).
type textField uint8

const (
	textNone textField = iota
	textName
	textErr
	textMsg
)

// record is one event as the ring stores it: fixed-size and free of
// pointers, so a ring chunk is a noscan allocation the garbage collector
// never walks. Strings from fixed vocabularies are symbol ids; text made
// at run time lives in the chunk's side array (see ringChunkRef).
type record struct {
	// seq is the event's sequence number plus one; 0 marks a slot no
	// event has reached.
	seq uint64
	// time is Now() at emission; lat is the event's Latency.
	time, lat time.Duration
	pid, uid  int32
	// name, module and decision are Event's fields as symbols.
	name, module, decision Sym
	// errno is the event's error when it is a bare errno.Errno. A fault
	// renders it by symbolic name, as fault plans spell it; every other
	// kind renders it as the error's text.
	errno int32
	kind  Kind
	text  textField
}

// setErr stores err in the record: a bare errno as its number, any other
// error as text, which it returns for the ring's side array.
func (rec *record) setErr(err error) string {
	if err == nil {
		return ""
	}
	if e, ok := err.(errno.Errno); ok && e != 0 {
		rec.errno = int32(e)
		return ""
	}
	return rec.withText(textErr, err.Error())
}

// withText marks field as carrying text and returns text.
func (rec *record) withText(field textField, text string) string {
	if text != "" {
		rec.text = field
	}
	return text
}

// event decodes the record; text is its side text and syms the symbol
// table.
func (rec *record) event(text string, syms []string) Event {
	ev := Event{
		Seq:      rec.seq - 1,
		Kind:     rec.kind,
		Name:     syms[rec.name],
		PID:      int(rec.pid),
		UID:      int(rec.uid),
		Module:   syms[rec.module],
		Decision: syms[rec.decision],
		Latency:  rec.lat,
		Time:     epoch.Add(rec.time),
	}
	if e := errno.Errno(rec.errno); e != 0 {
		if rec.kind == KindFaultInject {
			ev.Err = e.Name()
		} else {
			ev.Err = e.Error()
		}
	}
	switch rec.text {
	case textName:
		ev.Name = text
	case textErr:
		ev.Err = text
	case textMsg:
		ev.Msg = text
	}
	return ev
}

// slot is one record beside the lock that serializes the (rare) case of
// a writer lapping a concurrent reader or a slower writer on the same
// slot: 64 bytes.
type slot struct {
	mu  sync.Mutex
	rec record
}

// ringChunk is one span of slots, allocated on first use.
type ringChunk [ringChunkSize]slot

// ringChunkRef holds one chunk and its side array of text, each made on
// first use: the chunk when an event first lands in it, the side array
// when a text event does. A slot's text is written and read under the
// slot's lock.
type ringChunkRef struct {
	slots atomic.Pointer[ringChunk]
	text  atomic.Pointer[[ringChunkSize]string]
}

// chunk returns the chunk, installing it on first use. Losing the install
// race just means using the winner's chunk.
func (c *ringChunkRef) chunk() *ringChunk {
	if ch := c.slots.Load(); ch != nil {
		return ch
	}
	c.slots.CompareAndSwap(nil, new(ringChunk))
	return c.slots.Load()
}

// texts returns the side array, installing it on first use.
func (c *ringChunkRef) texts() *[ringChunkSize]string {
	if t := c.text.Load(); t != nil {
		return t
	}
	c.text.CompareAndSwap(nil, new([ringChunkSize]string))
	return c.text.Load()
}

// ring is a fixed-capacity, overwrite-oldest event buffer. The write
// cursor is a single atomic counter, so claiming a slot never contends on
// a lock shared with other writers. Capacity is always a power of two so
// the slot index is a mask, not a division.
//
// Slot storage is allocated in chunks on first touch: a tracer that never
// emits costs its chunk table, and one that emits a little pays for one
// chunk, not the whole ring. This is what keeps machine snapshots cheap —
// every cloned kernel gets its own tracer, and most clones only ever emit
// a handful of events.
type ring struct {
	capacity int
	mask     uint64
	chunks   []ringChunkRef
	// cursor is the next sequence number to be claimed; it only grows.
	cursor atomic.Uint64
}

// init sizes a zero ring: capacity is rounded up to a power of two
// (minimum 2). No slot storage is allocated until the first append.
func (r *ring) init(capacity int) {
	n := 2
	for n < capacity {
		n <<= 1
	}
	nChunks := n >> ringChunkShift
	if nChunks == 0 {
		nChunks = 1
	}
	r.capacity, r.mask = n, uint64(n-1)
	r.chunks = make([]ringChunkRef, nChunks)
}

// Cap returns the ring capacity (a power of two).
func (r *ring) Cap() int { return r.capacity }

// append claims the next sequence number and stores rec, with text in the
// chunk's side array, overwriting the event cap slots older.
func (r *ring) append(rec *record, text string) {
	seq := r.cursor.Add(1) - 1
	rec.seq = seq + 1
	i := seq & r.mask
	ref := &r.chunks[i>>ringChunkShift]
	ch := ref.chunk()
	var texts *[ringChunkSize]string
	if text != "" {
		texts = ref.texts()
	}
	j := i & (ringChunkSize - 1)
	s := &ch[j]
	s.mu.Lock()
	// A slower writer holding an older claim for this slot must not
	// clobber a newer event that already landed (the cursor, not arrival
	// order, defines age).
	if s.rec.seq < rec.seq {
		switch {
		case texts != nil:
			texts[j] = text
		case s.rec.text != textNone:
			ref.text.Load()[j] = "" // the lapped event's text
		}
		s.rec = *rec
	}
	s.mu.Unlock()
}

// Emitted returns the total number of events ever appended.
func (r *ring) Emitted() uint64 { return r.cursor.Load() }

// Dropped returns how many events have been overwritten (emitted beyond
// capacity). Concurrent in-flight writes may transiently make the retained
// snapshot smaller than Emitted-Dropped; once writers quiesce the identity
// retained == Emitted() - Dropped() holds exactly.
func (r *ring) Dropped() uint64 {
	n := r.cursor.Load()
	c := uint64(r.capacity)
	if n <= c {
		return 0
	}
	return n - c
}

// snapshot decodes the retained events for which keep is true, in
// sequence order (oldest first). The window is at most one lap, so each
// position maps to its own slot, and a slot whose record is not that
// position's event — a writer claimed it but has not stored yet, or a
// writer lapped the reader — is skipped rather than returned torn.
func (r *ring) snapshot(keep func(Kind) bool) []Event {
	cur := r.cursor.Load()
	c := uint64(r.capacity)
	start := uint64(0)
	if cur > c {
		start = cur - c
	}
	syms := symbolList()
	out := make([]Event, 0, cur-start)
	for seq := start; seq < cur; seq++ {
		i := seq & r.mask
		ref := &r.chunks[i>>ringChunkShift]
		ch := ref.slots.Load()
		if ch == nil {
			continue
		}
		j := i & (ringChunkSize - 1)
		s := &ch[j]
		s.mu.Lock()
		rec := s.rec
		var text string
		if rec.text != textNone {
			text = ref.text.Load()[j]
		}
		s.mu.Unlock()
		if rec.seq != seq+1 || !keep(rec.kind) {
			continue
		}
		out = append(out, rec.event(text, syms))
	}
	return out
}
