package gpu

import (
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
)

// countingDRAMHook counts DRAM scheduling callbacks.
type countingDRAMHook struct{ submitted, serviced int }

func (h *countingDRAMHook) Submitted(sim.Cycle, mem.Request, int, int, int64) { h.submitted++ }

func (h *countingDRAMHook) Serviced(sim.Cycle, mem.Request, int, int, int64, int64, sim.Cycle) {
	h.serviced++
}

func (h *countingDRAMHook) Refreshed(sim.Cycle, int) {}

// TestFactoryHooksSurviveWithoutObservers pins the contract external
// tracers rely on: a scheme factory may claim the engine's step hook and
// the DRAM hook itself, and with neither audit nor probes attached the
// machine installs nothing over them.
func TestFactoryHooksSurviveWithoutObservers(t *testing.T) {
	var steps int
	dh := &countingDRAMHook{}
	factory := func(env *protect.Env) protect.Scheme {
		env.Eng.SetStepHook(func(sim.Cycle) { steps++ })
		env.DRAM.SetHook(dh)
		return protect.NewInlineNaive(env)
	}
	m, err := New(quickCfg(), "stream", factory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("factory step hook never fired")
	}
	want := int(res.DRAMStats.Get("requests"))
	if want == 0 || dh.submitted != want || dh.serviced != want {
		t.Fatalf("factory DRAM hook saw %d submits, %d services; DRAM served %d requests",
			dh.submitted, dh.serviced, want)
	}
}

// nopHandler is a trivial pooled-event handler for alloc accounting.
type nopHandler struct{ n uint64 }

func (h *nopHandler) OnEvent(_ sim.Cycle, a0, _ uint64) { h.n += a0 }

// TestStepHookZeroAllocs is the observers' alloc guard on the engine hot
// path: Post/Step must stay allocation-free with the step-hook slot
// empty (no consumer attached), with the machine's observer installed
// for audit alone (no queue-depth consumer), and with probes attached
// (the observer feeding the preallocated sim.queue_depth track).
func TestStepHookZeroAllocs(t *testing.T) {
	stepAllocs := func(t *testing.T, attach func(m *Machine)) float64 {
		m, err := New(quickCfg(), "stream", protect.NewNone)
		if err != nil {
			t.Fatal(err)
		}
		attach(m)
		h := &nopHandler{}
		for i := 0; i < 64; i++ {
			m.eng.Post(m.eng.Now()+sim.Cycle(i%7), h, 1, 0)
		}
		for m.eng.Step() {
		}
		allocs := testing.AllocsPerRun(1000, func() {
			m.eng.Post(m.eng.Now()+3, h, 1, 0)
			m.eng.Post(m.eng.Now()+1, h, 1, 0)
			m.eng.Step()
			m.eng.Step()
		})
		if h.n == 0 {
			t.Fatal("handler never ran")
		}
		return allocs
	}

	t.Run("off", func(t *testing.T) {
		if allocs := stepAllocs(t, func(*Machine) {}); allocs != 0 {
			t.Fatalf("observer-off Step allocated %.1f times per run, want 0", allocs)
		}
	})
	t.Run("audit", func(t *testing.T) {
		if allocs := stepAllocs(t, func(m *Machine) { m.EnableAudit() }); allocs != 0 {
			t.Fatalf("audit-only Step allocated %.1f times per run, want 0", allocs)
		}
	})
	t.Run("probes", func(t *testing.T) {
		p := obs.NewProbesDepth(16, 32)
		if allocs := stepAllocs(t, func(m *Machine) { m.SetProbes(p) }); allocs != 0 {
			t.Fatalf("probes-on Step allocated %.1f times per run, want 0", allocs)
		}
		p.Flush()
		for _, s := range p.Snapshot() {
			if s.Name == "sim.queue_depth" && len(s.Samples) > 0 {
				return
			}
		}
		t.Fatal("queue-depth track never observed anything")
	})
}
