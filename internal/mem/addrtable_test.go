package mem

import (
	"math/rand"
	"testing"
)

// checkAddrTable verifies the linear-probing invariant: every entry sits
// at or after its home slot with no empty slot in between, and the entry
// count matches the occupied slots.
func checkAddrTable(t *testing.T, tb *AddrTable) {
	t.Helper()
	full := 0
	mask := len(tb.slots) - 1
	for i, s := range tb.slots {
		if !s.full {
			continue
		}
		full++
		for j := tb.home(s.key); j != i; j = (j + 1) & mask {
			if !tb.slots[j].full {
				t.Fatalf("key %#x at slot %d unreachable: empty slot %d after its home", s.key, i, j)
			}
		}
	}
	if full != tb.Len() {
		t.Fatalf("len %d, %d occupied slots", tb.Len(), full)
	}
}

// collidingKeys returns n distinct sector-aligned keys that share home
// slot 3 in an 8-slot table, so they form one long probe run until the
// table grows.
func collidingKeys(rng *rand.Rand, n int) []uint64 {
	probe := AddrTable{shift: 61}
	var keys []uint64
	for len(keys) < n {
		k := uint64(rng.Intn(1<<20)) * 32
		if probe.home(k) == 3 && !contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

func contains(keys []uint64, k uint64) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// TestAddrTableMatchesMap runs random put/del/get sequences against a Go
// map over a key pool of colliding keys, sequential sector addresses and
// zero, checking every lookup and the probing invariant as the table
// grows from empty.
func TestAddrTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := collidingKeys(rng, 24)
		for i := 0; i < 40; i++ {
			pool = append(pool, uint64(i)*32+1<<30)
		}
		pool = append(pool, 0)

		var tb AddrTable
		ref := map[uint64]int32{}
		for op := 0; op < 4000; op++ {
			k := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(10); {
			case r < 5:
				v := int32(rng.Intn(1000))
				tb.Put(k, v) // insert or overwrite
				ref[k] = v
			case r < 9:
				_, want := ref[k]
				if got := tb.Del(k); got != want {
					t.Fatalf("seed %d op %d: del(%#x) = %v, want %v", seed, op, k, got, want)
				}
				delete(ref, k)
			default:
				k = uint64(rng.Int63()) // almost surely absent
				_, want := ref[k]
				if _, ok := tb.Get(k); ok != want {
					t.Fatalf("seed %d op %d: get(%#x) found = %v, want %v", seed, op, k, ok, want)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, tb.Len(), len(ref))
			}
			for _, pk := range pool {
				got, ok := tb.Get(pk)
				want, wantOK := ref[pk]
				if ok != wantOK || got != want {
					t.Fatalf("seed %d op %d: get(%#x) = %d,%v want %d,%v", seed, op, pk, got, ok, want, wantOK)
				}
			}
			checkAddrTable(t, &tb)
		}
		if len(tb.slots) < 64 {
			t.Fatalf("seed %d: table never grew past %d slots", seed, len(tb.slots))
		}
	}
}

// TestAddrTableDeleteShiftsRunBack deletes from the middle of one probe
// run of colliding keys: the survivors must shift back so each stays
// reachable, and the run's last slot must empty.
func TestAddrTableDeleteShiftsRunBack(t *testing.T) {
	keys := collidingKeys(rand.New(rand.NewSource(7)), 3)
	var tb AddrTable
	for i, k := range keys {
		tb.Put(k, int32(i))
	}
	if len(tb.slots) != 8 {
		t.Fatalf("table has %d slots, want 8", len(tb.slots))
	}
	if !tb.Del(keys[0]) {
		t.Fatal("del of a present key reported absent")
	}
	checkAddrTable(t, &tb)
	if tb.slots[5].full {
		t.Fatal("run tail slot still occupied after delete")
	}
	for i, k := range keys[1:] {
		if v, ok := tb.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("get(%#x) = %d,%v after delete", k, v, ok)
		}
	}
}

// TestAddrTableZeroAllocs pins the steady state: once the table has grown
// to its working size, put, get and del allocate nothing.
func TestAddrTableZeroAllocs(t *testing.T) {
	var tb AddrTable
	for i := 0; i < 64; i++ {
		tb.Put(uint64(i)*128, int32(i))
	}
	for i := 0; i < 64; i++ {
		tb.Del(uint64(i) * 128)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := uint64(i%64) * 128
		tb.Put(k, int32(i))
		if _, ok := tb.Get(k); !ok {
			t.Fatal("put key missing")
		}
		tb.Del(k)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state put/get/del: %.1f allocs/op, want 0", allocs)
	}
}
