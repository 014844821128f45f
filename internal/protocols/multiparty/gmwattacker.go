package multiparty

import (
	"slices"

	"repro/internal/crypto/mac"
	"repro/internal/crypto/share"
	"repro/internal/sim"
)

// GMWSetupAttacker is the canonical attack on Π_GMW^{1/2} above the
// honest-majority threshold (Lemma 17): corrupt t parties; when the
// hybrid hands out the verifiable shares, reconstruct the output from the
// coalition's t ≥ ⌈n/2⌉ shares and abort the (merely
// secure-with-abort, once the honest majority is lost) setup protocol —
// the honest parties never receive their shares, E10. Below the
// threshold the shares reveal nothing and the setup is robust, so the
// strategy simply plays honestly (E11).
type GMWSetupAttacker struct {
	targets   []sim.PartyID
	machines  []sim.Party // index id-1
	learned   sim.Value
	learnedOK bool
}

var (
	_ sim.Adversary       = (*GMWSetupAttacker)(nil)
	_ sim.AdversaryCloner = (*GMWSetupAttacker)(nil)
)

// NewGMWSetupAttacker corrupts the given parties.
func NewGMWSetupAttacker(targets ...sim.PartyID) *GMWSetupAttacker {
	return &GMWSetupAttacker{targets: targets}
}

// CloneAdversary implements sim.AdversaryCloner.
func (a *GMWSetupAttacker) CloneAdversary() sim.Adversary {
	return NewGMWSetupAttacker(a.targets...)
}

// Reset implements sim.Adversary.
func (a *GMWSetupAttacker) Reset(ctx *sim.AdvContext) {
	a.machines = make([]sim.Party, ctx.Protocol.NumParties())
	a.learned, a.learnedOK = nil, false
}

// InitialCorruptions implements sim.Adversary.
func (a *GMWSetupAttacker) InitialCorruptions() []sim.PartyID { return a.targets }

// SubstituteInput implements sim.Adversary.
func (a *GMWSetupAttacker) SubstituteInput(_ sim.PartyID, orig sim.Value) sim.Value { return orig }

// ObserveSetup implements sim.Adversary: reconstruct from the coalition's
// shares, read in id order, if they reach the threshold, then abort the
// setup. (The engine consults the protocol's SetupAbortPolicy, so the
// abort only takes effect once the honest majority is actually lost.)
func (a *GMWSetupAttacker) ObserveSetup(outputs []sim.Value) bool {
	var announced []share.VerifiableShare
	var key mac.ByteKey
	threshold := 0
	for i, v := range outputs {
		if !slices.Contains(a.targets, sim.PartyID(i+1)) {
			continue
		}
		so, ok := v.(gmwSetupOut)
		if !ok {
			return false // not Π_GMW^{1/2}: do nothing
		}
		announced = append(announced, so.Share)
		key, threshold = so.Key, so.T
	}
	if len(announced) < threshold {
		return false
	}
	y, err := share.VerifiableReconstruct(key, threshold, announced)
	if err != nil {
		return false
	}
	a.learned, a.learnedOK = y.Uint64(), true
	return true
}

// CorruptBefore implements sim.Adversary.
func (a *GMWSetupAttacker) CorruptBefore(int) []sim.PartyID { return nil }

// OnCorrupt implements sim.Adversary.
func (a *GMWSetupAttacker) OnCorrupt(id sim.PartyID, m sim.Party, _ sim.Value) {
	if m != nil {
		a.machines[id-1] = m
	}
}

// Act implements sim.Adversary: silent after a successful setup attack,
// honest otherwise.
func (a *GMWSetupAttacker) Act(round int, inboxes [][]sim.Message, _ []sim.Message) []sim.Message {
	if a.learnedOK {
		return nil
	}
	var out []sim.Message
	for _, id := range a.targets {
		m := a.machines[id-1]
		if m == nil {
			continue
		}
		msgs, err := m.Round(round, inboxes[id-1])
		if err != nil {
			continue
		}
		for _, msg := range msgs {
			msg.From = id
			out = append(out, msg)
		}
		if v, ok := m.Output(); ok && !a.learnedOK {
			a.learned, a.learnedOK = v, true
		}
	}
	return out
}

// Learned implements sim.Adversary.
func (a *GMWSetupAttacker) Learned() (sim.Value, bool) { return a.learned, a.learnedOK }
