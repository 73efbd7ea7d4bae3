package collector

import (
	"sync"

	"foces/internal/topo"
)

// windowStore is the reusable backing storage behind a pooled Window:
// the delta map and the missing/resets/duplicate slices plus the lazy
// straddled/contributed/probes maps, all cleared and put back on the
// assembler's free list when the consumer calls Window.Release. A
// generation counter pairs each loan with the Window copy it was
// attached to so a double release (or a release of a stale copy after
// the store moved on to a later window) panics instead of silently
// corrupting a live window.
type windowStore struct {
	deltas      map[int]uint64
	missing     []topo.SwitchID
	resets      []topo.SwitchID
	dups        []int
	straddled   map[topo.SwitchID]uint64
	contributed map[topo.SwitchID]uint64
	probes      map[topo.SwitchID]ProbeSample
	gen         uint32
	free        *windowFree
}

// windowFree is an assembler's list of released window stores. Unlike
// a sync.Pool it is not emptied by garbage collection, so a steady
// stream of windows recycles the same few stores however often the
// collector runs. It keeps at most max stores (the completed-window
// buffer plus the one a consumer holds); stores released beyond that
// fall through to the garbage collector.
type windowFree struct {
	mu     sync.Mutex
	stores []*windowStore
	max    int
}

// get pops a released store, or builds one.
func (f *windowFree) get() *windowStore {
	f.mu.Lock()
	var s *windowStore
	if k := len(f.stores); k > 0 {
		s = f.stores[k-1]
		f.stores[k-1] = nil
		f.stores = f.stores[:k-1]
	}
	f.mu.Unlock()
	if s == nil {
		s = &windowStore{
			deltas:      make(map[int]uint64),
			straddled:   make(map[topo.SwitchID]uint64),
			contributed: make(map[topo.SwitchID]uint64),
			probes:      make(map[topo.SwitchID]ProbeSample),
			free:        f,
		}
	}
	return s
}

// put returns a cleared store to the list.
func (f *windowFree) put(s *windowStore) {
	f.mu.Lock()
	if len(f.stores) < f.max {
		f.stores = append(f.stores, s)
	}
	f.mu.Unlock()
}

// attach hands the store's storage to a freshly completing window. The
// slices start empty-but-capacitied; the lazy maps (straddled,
// contributed, probes) are attached by the assembler only when their
// first entry arrives, preserving the nil-when-absent field semantics
// consumers rely on.
func (s *windowStore) attach(w *Window) {
	w.Deltas = s.deltas
	w.Missing = s.missing[:0]
	w.Resets = s.resets[:0]
	w.DuplicateRules = s.dups[:0]
	w.store = s
	w.storeGen = s.gen
}

// Release returns a pooled window's backing storage to its assembler
// for reuse. After Release the window value (and every copy of it) is
// dead: its maps and slices alias storage the next completed window
// will overwrite. The receiver copy itself is zeroed so accidental
// reuse fails fast; releasing twice — or releasing a stale copy whose
// storage has already been recycled — panics.
//
// Windows that did not come from an assembler (zero values, hand-built
// test fixtures) have no store; Release on them is a no-op, so generic
// consumer code can release unconditionally.
func (w *Window) Release() {
	s := w.store
	if s == nil {
		return
	}
	if s.gen != w.storeGen {
		panic("collector: Window released twice")
	}
	s.gen++
	// Capture slice capacity grown by this window before poisoning.
	s.missing = w.Missing[:0]
	s.resets = w.Resets[:0]
	s.dups = w.DuplicateRules[:0]
	clear(s.deltas)
	clear(s.straddled)
	clear(s.contributed)
	clear(s.probes)
	*w = Window{}
	s.free.put(s)
}
