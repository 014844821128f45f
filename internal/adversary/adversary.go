// Package adversary is the attack-strategy library for the fairness
// experiments. It implements the proof adversaries of the paper —
// the one-sided lock-and-abort strategies A1/A2 (Lemma 7), their mixture
// Agen (Theorem 4), the multi-party A_ī (Lemma 12) and the pair
// Â_t/Ā_{n−t} (Lemma 15) — plus generic building blocks (static
// corruption with honest execution, abort-at-round sweeps, setup
// aborters) used to approximate sup_A u_A(Π, A) over a documented
// strategy space.
package adversary

import (
	"slices"

	"repro/internal/sim"
)

// driver manages the corrupted parties' machines, running them honestly
// on demand. Strategies embed it and decide when to stop. Its scratch
// buffers persist across Reset so a strategy reused by the estimation
// arena runs allocation-free in steady state; the slice stepHonest
// returns is valid only until the strategy's next Act.
type driver struct {
	ctx *sim.AdvContext
	// held lists the corrupted parties whose machines the driver runs,
	// ascending, and machines[i] is held[i]'s machine. add keeps the
	// order, so the per-round loops neither range a map nor sort.
	held     []sim.PartyID
	machines []sim.Party

	outScratch []sim.Message
}

func (d *driver) reset(ctx *sim.AdvContext) {
	d.ctx = ctx
	clear(d.machines) // drop the previous run's machines
	d.held, d.machines = d.held[:0], d.machines[:0]
}

func (d *driver) add(id sim.PartyID, m sim.Party) {
	if m == nil {
		return
	}
	i, found := slices.BinarySearch(d.held, id)
	if found {
		d.machines[i] = m
		return
	}
	d.held = slices.Insert(d.held, i, id)
	d.machines = slices.Insert(d.machines, i, m)
}

// stepHonest advances every corrupted machine one round on its delivered
// inbox (inboxes is indexed by party id − 1) and returns their outgoing
// messages, exactly as honest execution would. The returned slice is
// driver-owned scratch.
func (d *driver) stepHonest(round int, inboxes [][]sim.Message) []sim.Message {
	out := d.outScratch[:0]
	for i, id := range d.held {
		msgs, err := d.machines[i].Round(round, inboxes[id-1])
		if err != nil {
			continue // a defective machine just goes silent
		}
		for _, m := range msgs {
			m.From = id
			out = append(out, m)
		}
	}
	d.outScratch = out
	return out
}

// copyMachine returns a copy of m for lookahead, overwriting the pooled
// clone c in place when both implement sim.PartyCopier and cloning
// afresh otherwise. Callers keep the result as their next pooled clone.
func copyMachine(c, m sim.Party) sim.Party {
	if cp, ok := c.(sim.PartyCopier); ok && cp.CopyFrom(m) {
		return c
	}
	return m.Clone()
}
