package multiparty

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// chaser is an adaptive adversary against ΠOpt-nSFE: it stays out during
// the setup, watches the round-1 broadcasts, and corrupts the output
// holder the moment its broadcast appears. The attack is futile — the
// broadcast is already on the wire when the holder is identified — which
// is the adaptive-security content of Lemma 11's simulator: corrupting
// p_{i*} late yields no unfair advantage.
type chaser struct {
	ctx       *sim.AdvContext
	target    sim.PartyID
	learned   sim.Value
	learnedOK bool
}

var _ sim.Adversary = (*chaser)(nil)

func (c *chaser) Reset(ctx *sim.AdvContext) {
	c.ctx, c.target = ctx, 0
	c.learned, c.learnedOK = nil, false
}
func (c *chaser) InitialCorruptions() []sim.PartyID                    { return nil }
func (c *chaser) SubstituteInput(_ sim.PartyID, v sim.Value) sim.Value { return v }
func (c *chaser) ObserveSetup([]sim.Value) bool                        { return false }

func (c *chaser) CorruptBefore(round int) []sim.PartyID {
	if round == 2 && c.target != 0 {
		return []sim.PartyID{c.target}
	}
	return nil
}

func (c *chaser) OnCorrupt(_ sim.PartyID, _ sim.Party, setupOut sim.Value) {
	if so, ok := setupOut.(optnSetupOut); ok && so.HasOutput {
		c.learned, c.learnedOK = so.Y, true
	}
}

func (c *chaser) Act(_ int, _ [][]sim.Message, rushed []sim.Message) []sim.Message {
	for _, m := range rushed {
		if om, ok := m.Payload.(outMsg); ok && om.HasOutput && c.target == 0 {
			c.target = m.From // found the holder — corrupt it next round
		}
	}
	return nil
}

func (c *chaser) Learned() (sim.Value, bool) { return c.learned, c.learnedOK }

func TestAdaptiveChaserCannotBeatStaticBound(t *testing.T) {
	// The chaser always identifies and corrupts p_{i*}, learning the
	// output — but every honest party already received the broadcast, so
	// the runs end in E11, matching the t=1 static profile rather than
	// beating it.
	g := core.StandardPayoff()
	n := 4
	p := NewOptN(testFn(t, n))
	rep, err := core.EstimateUtility(p, &chaser{}, g, sampler(n), 500, 77)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] > 0.01 {
		t.Errorf("adaptive chase achieved E10 freq %v — should be impossible", rep.EventFreq[core.E10])
	}
	if rep.Utility.Mean > core.MultiPartyTBound(g, n, 1)+0.05 {
		t.Errorf("adaptive utility %v exceeds the t=1 static bound %v",
			rep.Utility.Mean, core.MultiPartyTBound(g, n, 1))
	}
	// It does learn (corrupting the holder reveals the output) — the
	// point is that learning late is worthless.
	if rep.EventFreq[core.E11] < 0.9 {
		t.Errorf("chaser should complete in E11, events %v", rep.EventFreq)
	}
}
