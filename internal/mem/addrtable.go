package mem

// AddrTable maps addresses to int32 slots. It indexes every address-keyed
// table on the miss path: the L2 banks' MSHR entries and reconstruction
// scoreboard, the SMs' L1 miss-merge heads, the protection controllers'
// in-flight fetches and CacheCraft's write buffer. It is an
// open-addressed table with linear probing and backward-shift deletion,
// so it keeps no tombstones and a lookup touches one or two adjacent
// 16-byte slots. The zero value is empty and allocates nothing; the slot
// array is created on the first Put and doubles whenever it would pass
// half full, so each table sizes itself to its peak during a run.
type AddrTable struct {
	slots []addrSlot // power-of-two length, or nil while never used
	shift uint       // 64 - log2(len(slots))
	n     int
}

type addrSlot struct {
	key  uint64
	val  int32
	full bool
}

// home is key's preferred slot: Fibonacci hashing, which spreads the
// aligned addresses (low bits all zero) over the table's top bits.
func (t *AddrTable) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// Len reports the number of keys in the table.
func (t *AddrTable) Len() int { return t.n }

// Get returns key's value, if present.
func (t *AddrTable) Get(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// Put sets key's value, inserting key if absent.
func (t *AddrTable) Put(key uint64, val int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			*s = addrSlot{key: key, val: val, full: true}
			t.n++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
	}
}

// Del removes key, reporting whether it was present. Later entries of the
// probe run shift back into the hole, so no lookup ever crosses a gap.
func (t *AddrTable) Del(key uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for ; t.slots[i].key != key || !t.slots[i].full; i = (i + 1) & mask {
		if !t.slots[i].full {
			return false
		}
	}
	t.n--
	for j := (i + 1) & mask; t.slots[j].full; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j], where moving it would strand it before
		// its home.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = addrSlot{}
	return true
}

// grow doubles the slot array (8 slots at first) and reinserts every
// entry.
func (t *AddrTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 8
	}
	t.slots = make([]addrSlot, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
	for _, s := range old {
		if s.full {
			t.Put(s.key, s.val)
		}
	}
}
