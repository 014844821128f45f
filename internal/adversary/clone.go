package adversary

import (
	"repro/internal/sim"
)

// Every strategy in this package implements sim.AdversaryCloner so the
// parallel estimator can give each worker its own copy. Clones are
// rebuilt from configuration alone (targets, stop rounds, wrapped
// sub-strategies) — never struct-copied, because the embedded driver's
// machine map and the learned-output caches are per-run mutable state
// that Reset re-initializes anyway.
var (
	_ sim.AdversaryCloner = (*Static)(nil)
	_ sim.AdversaryCloner = (*AbortAt)(nil)
	_ sim.AdversaryCloner = (*SetupAbort)(nil)
	_ sim.AdversaryCloner = (*LockAbort)(nil)
	_ sim.AdversaryCloner = (*Mixer)(nil)
	_ sim.AdversaryCloner = (*InputSubst)(nil)
	_ sim.AdversaryCloner = (*Factory)(nil)
)

// CloneAdversary implements sim.AdversaryCloner.
func (s *Static) CloneAdversary() sim.Adversary { return NewStatic(s.Targets...) }

// CloneAdversary implements sim.AdversaryCloner.
func (a *AbortAt) CloneAdversary() sim.Adversary {
	c := NewAbortAt(a.StopRound, a.Targets...)
	c.AbortSetup = a.AbortSetup
	return c
}

// CloneAdversary implements sim.AdversaryCloner.
func (s *SetupAbort) CloneAdversary() sim.Adversary { return NewSetupAbort(s.Targets...) }

// CloneAdversary implements sim.AdversaryCloner.
func (l *LockAbort) CloneAdversary() sim.Adversary { return NewLockAbort(l.Targets...) }

// CloneAdversary implements sim.AdversaryCloner. A mixture is cloneable
// exactly when every sub-strategy is.
func (m *Mixer) CloneAdversary() sim.Adversary {
	subs := make([]sim.Adversary, len(m.Strategies))
	for i, s := range m.Strategies {
		c, ok := sim.CloneAdversary(s)
		if !ok {
			return nil
		}
		subs[i] = c
	}
	return NewMixer(subs...)
}

// CloneAdversary implements sim.AdversaryCloner.
func (i *InputSubst) CloneAdversary() sim.Adversary {
	c, ok := sim.CloneAdversary(i.Adversary)
	if !ok {
		return nil
	}
	return &InputSubst{Adversary: c, Value: i.Value}
}

// Factory adapts an arbitrary construction function into a cloneable
// strategy: CloneAdversary invokes the function for a fresh instance.
// Use it to run ad-hoc stateful adversaries (e.g. from outside this
// package) on the parallel estimator without implementing
// sim.AdversaryCloner on the type itself.
type Factory struct {
	sim.Adversary
	fresh func() sim.Adversary
}

// NewFactory wraps fresh(), which must return a new independent strategy
// instance on every call. The returned Factory delegates to one instance
// and clones by calling fresh() again.
func NewFactory(fresh func() sim.Adversary) *Factory {
	return &Factory{Adversary: fresh(), fresh: fresh}
}

// CloneAdversary implements sim.AdversaryCloner.
func (f *Factory) CloneAdversary() sim.Adversary {
	return &Factory{Adversary: f.fresh(), fresh: f.fresh}
}

// Quiet implements sim.Quiescent, delegating to the wrapped instance.
func (f *Factory) Quiet() bool { return sim.IsQuiet(f.Adversary) }
