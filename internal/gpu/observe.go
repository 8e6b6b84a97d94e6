package gpu

import (
	"fmt"

	"cachecraft/internal/audit"
	"cachecraft/internal/mem"
	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
)

// observer is the machine's one instrumentation seam. It owns every
// layer's single hook slot — the engine step hook, the DRAM hook, both
// crossbar hooks and the scheme decorator — plus the machine's own call
// sites (token issue and delivery, L2 MSHR, tag and fill sites), and fans
// each event out to the attached consumers: the invariant-audit checker
// and the time-resolved probe tracks. The machine creates it when the
// first consumer attaches; until then its pointer is nil, every slot
// stays empty, and each call site costs one branch.
//
// The observer embeds the checker, so an event only the audit consumes
// goes straight to the Checker method; the methods defined here override
// the Checker's to feed a probe track too. Both consumers are nil-safe
// (Checker methods and obs.Series.Add are no-ops on nil), so no method
// checks which of them is attached.
type observer struct {
	*audit.Checker // nil unless EnableAudit
	m              *Machine
	probes         *obs.Probes

	// Probe tracks, all nil until SetProbes. Shared tracks are safe to
	// feed from every bank: the engine runs events in cycle order, so
	// observations arrive cycle-monotone.
	issue      *obs.Series   // Sum: sector requests issued per window
	mshr       *obs.Series   // Mean: bank MSHR occupancy at alloc/release
	reconFill  *obs.Series   // Sum: reconstructed-line sector fills
	reconHit   *obs.Series   // Mean: 1 per reconstructed sector used, 0 wasted
	l2Fills    *obs.Series   // Sum: L2 fills that brought in new sectors
	bankHit    []*obs.Series // Mean per bank: 1 per tag hit, 0 per miss
	classBytes []*obs.Series // Sum per mem.Class: DRAM bytes submitted
	rowHit     *obs.Series   // Mean: 1 per DRAM row hit, 0 per miss or conflict
	reqBytes   *obs.Series   // Sum: request-network bytes injected
	respBytes  *obs.Series   // Sum: response-network bytes injected
	depth      *obs.Series   // Mean: engine queue depth per step
	joinLat    *obs.Series   // Mean: controller ReadMiss issue-to-join cycles
}

// observe returns the machine's observer, creating it and installing it
// into every hook slot on first use. Slots are claimed once, so audit and
// probes attached in either order share one fan-out per slot.
func (m *Machine) observe() *observer {
	if m.ob != nil {
		return m.ob
	}
	o := &observer{m: m, bankHit: make([]*obs.Series, len(m.banks))}
	m.ob = o
	m.eng.SetStepHook(o.EngineStep)
	m.dram.SetHook(o)
	m.reqNet.SetHook(o.reqTransfer)
	m.respNet.SetHook(o.respTransfer)
	// The decorator preserves ReconstructionObserver, so reconFeedback's
	// type assertion on m.scheme keeps working for CacheCraft.
	m.scheme = protect.WrapObserved(m.scheme, o)
	return o
}

// attachProbes registers every probe track in p. Registration order is
// the tracks' export order, which TestTimelineGolden pins.
func (o *observer) attachProbes(p *obs.Probes) {
	o.probes = p
	o.issue = p.Series("sm.issue", obs.Sum)
	o.mshr = p.Series("l2.mshr_occupancy", obs.Mean)
	o.reconFill = p.Series("l2.recon_fills", obs.Sum)
	o.reconHit = p.Series("l2.recon_hit_rate", obs.Mean)
	o.l2Fills = p.Series("l2.fills", obs.Sum)
	for i := range o.bankHit {
		o.bankHit[i] = p.Series(fmt.Sprintf("l2.bank%d.hit_rate", i), obs.Mean)
	}
	o.classBytes = make([]*obs.Series, len(mem.Classes())) // classes are dense from 0
	for _, c := range mem.Classes() {
		o.classBytes[c] = p.Series("dram.bytes."+c.String(), obs.Sum)
	}
	o.rowHit = p.Series("dram.row_hit_rate", obs.Mean)
	o.reqBytes = p.Series("xbar.req.bytes", obs.Sum)
	o.respBytes = p.Series("xbar.resp.bytes", obs.Sum)
	o.depth = p.Series("sim.queue_depth", obs.Mean)
	o.joinLat = p.Series("protect.join_latency", obs.Mean)
}

// indicator maps an event outcome to a Mean-mode probe observation.
func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// EngineStep is the engine's step hook. It runs after the event leaves
// the queue, so Pending is the depth the event leaves behind.
func (o *observer) EngineStep(at sim.Cycle) {
	o.Checker.EngineStep(at)
	o.depth.Add(uint64(at), float64(o.m.eng.Pending()))
}

// Submitted implements dram.Hook.
func (o *observer) Submitted(now sim.Cycle, req mem.Request, ch, bk int, row int64) {
	o.Checker.Submitted(now, req, ch, bk, row)
	if int(req.Class) < len(o.classBytes) {
		o.classBytes[req.Class].Add(uint64(now), float64(req.Bytes))
	}
}

// Serviced implements dram.Hook.
func (o *observer) Serviced(now sim.Cycle, req mem.Request, ch, bk int, row, openBefore int64, readyBefore sim.Cycle) {
	o.Checker.Serviced(now, req, ch, bk, row, openBefore, readyBefore)
	o.rowHit.Add(uint64(now), indicator(openBefore == row))
}

func (o *observer) reqTransfer(at, deliver sim.Cycle, _, _, bytes int) {
	o.XbarTransfer("req", at, deliver, bytes, o.m.reqNet.Latency())
	o.reqBytes.Add(uint64(at), float64(bytes))
}

func (o *observer) respTransfer(at, deliver sim.Cycle, _, _, bytes int) {
	o.XbarTransfer("resp", at, deliver, bytes, o.m.respNet.Latency())
	o.respBytes.Add(uint64(at), float64(bytes))
}

// ReadMissDone implements protect.SchemeSink; the join latency is the
// cycles between the controller issuing the miss and its (possibly
// multi-leg) completion joining back.
func (o *observer) ReadMissDone(issued, at sim.Cycle, token uint64) {
	o.Checker.ReadMissDone(at, token)
	o.joinLat.Add(uint64(at), float64(at-issued))
}

// MSHRAlloc records a new L2 MSHR entry; live counts the bank's entries
// including it.
func (o *observer) MSHRAlloc(now sim.Cycle, bank int, lineAddr uint64, live int) {
	o.Checker.MSHRAlloc(now, bank, lineAddr, live)
	o.mshr.Add(uint64(now), float64(live))
}

// MSHRRelease records an L2 MSHR entry retiring. The bank calls it after
// dropping the entry, so the occupancy sample counts the entries left.
func (o *observer) MSHRRelease(now sim.Cycle, bank int, lineAddr uint64) {
	o.Checker.MSHRRelease(now, bank, lineAddr)
	o.mshr.Add(uint64(now), float64(o.m.banks[bank].mshr.Len()))
}

// l2Access records one L2 tag lookup. The tag store is clockless, so the
// sample takes the engine's current cycle.
func (o *observer) l2Access(bank int, hit bool) {
	o.bankHit[bank].Add(uint64(o.m.eng.Now()), indicator(hit))
}
