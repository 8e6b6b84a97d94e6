package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// refDRAM is the original full-scan scheduler, kept here as the
// differential oracle: every pick scans each bank's FR-FCFS window for a
// row hit, and every wake scans all banks for the earliest ready one. The
// windowed hit counts, pending-bank mask and packed ready array of DRAM
// must reproduce its decisions exactly. Timing, routing and arming are
// DRAM's own (route is shared); statistics are omitted.
type refDRAM struct {
	cfg   Config
	eng   *sim.Engine
	route func(addr uint64) (int, int, int64)
	chans []*refChannel
	log   []serviced
}

type refBank struct {
	openRow int64
	readyAt sim.Cycle
	queue   []pendingReq
	head    int
}

func (b *refBank) pending() int { return len(b.queue) - b.head }

type refChannel struct {
	id          int
	banks       []refBank
	bus         *sim.Resource
	rr          int
	nextRefresh sim.Cycle
	armGen      uint64
	armed       bool
	armedAt     sim.Cycle
	nextCmd     sim.Cycle
}

// serviced is one Hook.Serviced call.
type serviced struct {
	now         sim.Cycle
	addr        uint64
	ch, bk      int
	row, open   int64
	readyBefore sim.Cycle
}

func newRefDRAM(eng *sim.Engine, cfg Config) *refDRAM {
	d := &refDRAM{cfg: cfg, eng: eng, route: New(sim.NewEngine(), cfg).route}
	for i := 0; i < cfg.Channels; i++ {
		c := &refChannel{id: i, bus: sim.NewResource("ref"), nextRefresh: cfg.TREFI}
		c.banks = make([]refBank, cfg.BanksPerChannel)
		for b := range c.banks {
			c.banks[b].openRow = -1
		}
		d.chans = append(d.chans, c)
	}
	return d
}

func (d *refDRAM) Submit(now sim.Cycle, req mem.Request) {
	ch, bk, row := d.route(req.Addr)
	c := d.chans[ch]
	c.banks[bk].queue = append(c.banks[bk].queue, pendingReq{req: req, arrival: now, row: row})
	d.arm(c, now)
}

func (d *refDRAM) arm(c *refChannel, at sim.Cycle) {
	if at < c.nextCmd {
		at = c.nextCmd
	}
	if c.armed && c.armedAt <= at {
		return
	}
	c.armed = true
	c.armedAt = at
	c.armGen++
	d.eng.Post(at, (*refArm)(d), uint64(c.id), c.armGen)
}

type refArm refDRAM

func (h *refArm) OnEvent(now sim.Cycle, a0, a1 uint64) {
	d := (*refDRAM)(h)
	c := d.chans[a0]
	if a1 != c.armGen {
		return
	}
	c.armed = false
	d.service(c, now)
}

func (d *refDRAM) service(c *refChannel, now sim.Cycle) {
	d.maybeRefresh(c, now)
	bk := d.pickBank(c, now)
	if bk < 0 {
		if wake, ok := d.earliestWork(c, now); ok {
			d.arm(c, wake)
		}
		return
	}
	b := &c.banks[bk]
	idx := b.head
	for i := b.head; i < len(b.queue) && i < b.head+d.cfg.SchedulerWindow; i++ {
		if b.queue[i].row == b.openRow {
			idx = i
			break
		}
	}
	pr := b.queue[idx]
	copy(b.queue[b.head+1:idx+1], b.queue[b.head:idx])
	b.head++
	row := pr.row
	d.log = append(d.log, serviced{now, pr.req.Addr, c.id, bk, row, b.openRow, b.readyAt})

	var colIssued sim.Cycle
	switch {
	case b.openRow == row:
		colIssued = now
	case b.openRow < 0:
		colIssued = now + d.cfg.TRCD
	default:
		colIssued = now + d.cfg.TRP + d.cfg.TRCD
	}
	b.openRow = row
	bursts := (pr.req.Bytes + 31) / 32
	if bursts == 0 {
		bursts = 1
	}
	busDur := d.cfg.TBurst * sim.Cycle(bursts)
	b.readyAt = colIssued + busDur
	finish := c.bus.Claim(colIssued+d.cfg.TCAS, busDur) + busDur
	if done := pr.req.Done; done != nil {
		d.eng.Post(finish, done, pr.req.Arg, 0)
	}
	c.nextCmd = now + d.cfg.TCmd
	if _, ok := d.earliestWork(c, now); ok {
		d.arm(c, c.nextCmd)
	}
}

func (d *refDRAM) maybeRefresh(c *refChannel, now sim.Cycle) {
	if d.cfg.TREFI == 0 {
		return
	}
	for now >= c.nextRefresh {
		end := c.nextRefresh + d.cfg.TRFC
		for i := range c.banks {
			b := &c.banks[i]
			if b.readyAt < end {
				b.readyAt = end
			}
			b.openRow = -1
		}
		c.nextRefresh += d.cfg.TREFI
	}
}

func (d *refDRAM) pickBank(c *refChannel, now sim.Cycle) int {
	n := len(c.banks)
	fallback := -1
	for off := 0; off < n; off++ {
		bk := (c.rr + off) % n
		b := &c.banks[bk]
		if b.pending() == 0 || b.readyAt > now {
			continue
		}
		hit := false
		for i := b.head; i < len(b.queue) && i < b.head+d.cfg.SchedulerWindow; i++ {
			if b.queue[i].row == b.openRow {
				hit = true
				break
			}
		}
		if hit {
			c.rr = (bk + 1) % n
			return bk
		}
		if fallback < 0 {
			fallback = bk
		}
	}
	if fallback >= 0 {
		c.rr = (fallback + 1) % n
	}
	return fallback
}

func (d *refDRAM) earliestWork(c *refChannel, now sim.Cycle) (sim.Cycle, bool) {
	earliest := sim.Cycle(0)
	found := false
	for i := range c.banks {
		b := &c.banks[i]
		if b.pending() == 0 {
			continue
		}
		at := b.readyAt
		if at < now {
			at = now
		}
		if !found || at < earliest {
			earliest = at
			found = true
		}
	}
	return earliest, found
}

// serviceLog records DRAM's Hook.Serviced calls.
type serviceLog struct{ log []serviced }

func (l *serviceLog) Submitted(sim.Cycle, mem.Request, int, int, int64) {}
func (l *serviceLog) Refreshed(sim.Cycle, int)                          {}
func (l *serviceLog) Serviced(now sim.Cycle, req mem.Request, ch, bk int, row, open int64, ready sim.Cycle) {
	l.log = append(l.log, serviced{now, req.Addr, ch, bk, row, open, ready})
}

// TestSchedulerMatchesFullScanReference drives DRAM and refDRAM with the
// same deep random submit streams — thousands of requests outstanding
// over several channels, refresh on, rows clustered so window hits are
// common — and requires identical dispatch decisions and completion
// cycles.
func TestSchedulerMatchesFullScanReference(t *testing.T) {
	for _, window := range []int{1, 4, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("window%d/seed%d", window, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Channels = 4
				cfg.BanksPerChannel = 8
				cfg.SchedulerWindow = window
				testSchedulerAgainstReference(t, cfg, seed)
			})
		}
	}
}

func testSchedulerAgainstReference(t *testing.T, cfg Config, seed int64) {
	const n = 12000
	rng := rand.New(rand.NewSource(seed))
	type sub struct {
		at    sim.Cycle
		addr  uint64
		bytes int
		write bool
	}
	// Addresses come from 4 rows per bank; bursts of submits arrive far
	// faster than the banks drain them.
	subs := make([]sub, n)
	stripe := uint64(cfg.ChannelInterleaveBytes)
	chanRow := uint64(cfg.RowBytes)
	var at sim.Cycle
	for i := range subs {
		if rng.Intn(8) == 0 {
			at += sim.Cycle(rng.Intn(20))
		}
		ch := uint64(rng.Intn(cfg.Channels))
		rowGlobal := uint64(rng.Intn(4)*cfg.BanksPerChannel + rng.Intn(cfg.BanksPerChannel))
		chanAddr := rowGlobal*chanRow + uint64(rng.Intn(cfg.RowBytes))&^31
		addr := (chanAddr/stripe*uint64(cfg.Channels)+ch)*stripe + chanAddr%stripe
		subs[i] = sub{at: at, addr: addr, bytes: 32 << rng.Intn(2), write: rng.Intn(4) == 0}
	}

	newDone := make([]sim.Cycle, n)
	refDone := make([]sim.Cycle, n)
	eng, refEng := sim.NewEngine(), sim.NewEngine()
	d, ref := New(eng, cfg), newRefDRAM(refEng, cfg)
	hook := &serviceLog{}
	d.SetHook(hook)
	outstanding, maxOutstanding := 0, 0
	for i, s := range subs {
		i, s := i, s
		eng.Post(s.at, handlerFunc(func(now sim.Cycle) {
			outstanding++
			maxOutstanding = max(maxOutstanding, outstanding)
			d.Submit(now, mem.Request{Addr: s.addr, Bytes: s.bytes, Write: s.write,
				Done: handlerFunc(func(at sim.Cycle) { newDone[i] = at; outstanding-- })})
		}), 0, 0)
		refEng.Post(s.at, handlerFunc(func(now sim.Cycle) {
			ref.Submit(now, mem.Request{Addr: s.addr, Bytes: s.bytes, Write: s.write,
				Done: handlerFunc(func(at sim.Cycle) { refDone[i] = at })})
		}), 0, 0)
	}
	eng.Run(1 << 40)
	refEng.Run(1 << 40)

	if !d.Drain() {
		t.Fatal("DRAM did not drain")
	}
	if maxOutstanding < 2000 {
		t.Fatalf("max outstanding %d: stream too shallow to exercise deep queues", maxOutstanding)
	}
	if d.Stats.Get("row_hits") == 0 || d.Stats.Get("refreshes") == 0 {
		t.Fatalf("stream hit no open rows (%d) or no refreshes (%d)",
			d.Stats.Get("row_hits"), d.Stats.Get("refreshes"))
	}
	if len(hook.log) != n || len(ref.log) != n {
		t.Fatalf("serviced %d (ref %d), want %d", len(hook.log), len(ref.log), n)
	}
	for i := range hook.log {
		if hook.log[i] != ref.log[i] {
			t.Fatalf("dispatch %d: got %+v, reference %+v", i, hook.log[i], ref.log[i])
		}
	}
	if !reflect.DeepEqual(newDone, refDone) {
		for i := range newDone {
			if newDone[i] != refDone[i] {
				t.Fatalf("request %d completed at %d, reference %d", i, newDone[i], refDone[i])
			}
		}
	}
}
