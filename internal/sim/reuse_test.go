package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/sim"
)

// TestReuseHooksMatchFreshMachines is the contract test for the engine's
// reuse hooks on the two-party families that implement them beyond
// ΠOpt-2SFE: a machine reinitialized in place (sim.ReusableParty) after
// a run on other inputs must behave exactly like one NewParty builds
// from an identically seeded RNG — the same messages every round and the
// same output — and a machine overwritten with CopyFrom
// (sim.PartyCopier) must behave exactly like a Clone, without disturbing
// its source. Setup outputs come from Setup for the fresh machines and
// from the protocol's setup scratch (sim.ScratchSetupProtocol, reused
// across the two runs) for the reinitialized ones. Every scenario also
// cuts one party off mid-run, so the abort paths are compared too.
func TestReuseHooksMatchFreshMachines(t *testing.T) {
	polyDomain, err := gordonkatz.NewPolyDomain(gordonkatz.AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	polyRange, err := gordonkatz.NewPolyRange(gordonkatz.AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pitilde, err := gordonkatz.NewPitilde()
	if err != nil {
		t.Fatal(err)
	}
	and := [][]sim.Value{{uint64(1), uint64(1)}, {uint64(0), uint64(1)}, {uint64(1), uint64(0)}}
	sigs := [][]sim.Value{{uint64(111), uint64(222)}, {uint64(7), uint64(1 << 40)}}
	cases := []struct {
		proto  sim.Protocol
		inputs [][]sim.Value
	}{
		{contract.Pi1{}, sigs},
		{contract.Pi2{}, sigs},
		{polyDomain, and},
		{polyRange, and},
		{pitilde, and},
	}
	for _, tc := range cases {
		t.Run(tc.proto.Name(), func(t *testing.T) {
			rounds := tc.proto.NumRounds() + 1
			for seed := int64(1); seed <= 6; seed++ {
				for _, aborted := range []bool{false, true} {
					for cut := 1; cut <= rounds+1; cut++ {
						for _, silent := range []sim.PartyID{1, 2} {
							name := fmt.Sprintf("seed=%d/aborted=%v/p%d-silent-from-r%d", seed, aborted, silent, cut)
							checkReuse(t, name, tc.proto, tc.inputs, seed, aborted, cut, silent)
						}
					}
				}
			}
		})
	}
}

// reuseRNG seeds a run's streams: stream 0 drives setup, stream i party i.
func reuseRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

func checkReuse(t *testing.T, name string, proto sim.Protocol, inputs [][]sim.Value, seed int64,
	aborted bool, cut int, silent sim.PartyID) {
	t.Helper()
	target, dirty := inputs[int(seed)%len(inputs)], inputs[(int(seed)+1)%len(inputs)]

	// Setup outputs: Setup for the fresh machines; for the reused ones, a
	// setup scratch that first served a run on other inputs.
	freshOuts, err := proto.Setup(target, reuseRNG(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	setup := proto.Setup
	if sp, ok := proto.(sim.ScratchSetupProtocol); ok {
		setup = sp.NewSetupScratch()
	}
	dirtyOuts, err := setup(dirty, reuseRNG(seed+100, 0))
	if err != nil {
		t.Fatal(err)
	}
	outOf := func(outs []sim.Value, i int) sim.Value {
		if aborted || outs == nil {
			return nil
		}
		return outs[i]
	}

	// The reused machines first play a whole honest run on other inputs
	// (leaving every buffer and cell dirty), and spares — for CopyFrom —
	// are built the same way.
	var fresh, reused, spares [2]sim.Party
	for i := range reused {
		id := sim.PartyID(i + 1)
		m, err := proto.NewParty(id, dirty[i], outOf(dirtyOuts, i), aborted, reuseRNG(seed+100, i+1))
		if err != nil {
			t.Fatal(err)
		}
		reused[i] = m
		if spares[i], err = proto.NewParty(id, dirty[i], outOf(dirtyOuts, i), aborted, reuseRNG(seed+200, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	playHonest(t, reused, proto.NumRounds()+1)
	playHonest(t, spares, proto.NumRounds()+1)

	reusedOuts, err := setup(target, reuseRNG(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(freshOuts) > 2 && !reflect.DeepEqual(freshOuts[2], reusedOuts[2]) {
		t.Fatalf("%s: setup scratch audit %v, Setup %v", name, reusedOuts[2], freshOuts[2])
	}
	for i := range fresh {
		id := sim.PartyID(i + 1)
		if fresh[i], err = proto.NewParty(id, target[i], outOf(freshOuts, i), aborted, reuseRNG(seed, i+1)); err != nil {
			t.Fatal(err)
		}
		ru, ok := reused[i].(sim.ReusableParty)
		if !ok {
			t.Fatalf("%T does not implement sim.ReusableParty", reused[i])
		}
		if !ru.Reinit(id, target[i], outOf(reusedOuts, i), aborted, reuseRNG(seed, i+1)) {
			t.Fatalf("%s: party %d declined Reinit", name, id)
		}
	}

	// Lockstep: both pairs step on their own routed inboxes; from round
	// cut on, party `silent` sends nothing.
	last := proto.NumRounds() + 1
	var inF, inR [2][]sim.Message
	for r := 1; r <= last; r++ {
		for i := range reused {
			checkCopyMatchesClone(t, fmt.Sprintf("%s: round %d party %d", name, r, i+1), reused[i], spares[i], r, last, inR[i])
		}
		var nextF, nextR [2][]sim.Message
		for i := range fresh {
			id := sim.PartyID(i + 1)
			outF, errF := fresh[i].Round(r, inF[i])
			outR, errR := reused[i].Round(r, inR[i])
			if (errF != nil) != (errR != nil) || !reflect.DeepEqual(outF, outR) {
				t.Fatalf("%s: round %d party %d: reused sent %+v (%v), fresh %+v (%v)", name, r, id, outR, errR, outF, errF)
			}
			if id == silent && r >= cut {
				continue
			}
			route(&nextF, id, outF)
			route(&nextR, id, outR)
		}
		inF, inR = nextF, nextR
	}
	for i := range fresh {
		vF, okF := fresh[i].Output()
		vR, okR := reused[i].Output()
		if okF != okR || !reflect.DeepEqual(vF, vR) {
			t.Fatalf("%s: party %d output: reused %v/%v, fresh %v/%v", name, i+1, vR, okR, vF, okF)
		}
		if af, ok := fresh[i].(sim.AuditedParty); ok {
			if a, b := af.AuditInfo(), reused[i].(sim.AuditedParty).AuditInfo(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: party %d audit: reused %v, fresh %v", name, i+1, b, a)
			}
		}
	}
}

// checkCopyMatchesClone overwrites spare with m through CopyFrom and
// plays it and a Clone of m forward from round r (the round-r inbox,
// silence afterwards), requiring identical messages and outputs.
func checkCopyMatchesClone(t *testing.T, name string, m, spare sim.Party, r, last int, inbox []sim.Message) {
	t.Helper()
	cp, ok := spare.(sim.PartyCopier)
	if !ok {
		t.Fatalf("%T does not implement sim.PartyCopier", spare)
	}
	if !cp.CopyFrom(m) {
		t.Fatalf("%s: CopyFrom declined a machine of its own type", name)
	}
	clone := m.Clone()
	for rr := r; rr <= last; rr++ {
		outC, errC := clone.Round(rr, inbox)
		outS, errS := spare.Round(rr, inbox)
		if (errC != nil) != (errS != nil) || !reflect.DeepEqual(outC, outS) {
			t.Fatalf("%s: lookahead round %d: copy sent %+v, clone %+v", name, rr, outS, outC)
		}
		inbox = nil
	}
	vC, okC := clone.Output()
	vS, okS := spare.Output()
	if okC != okS || !reflect.DeepEqual(vC, vS) {
		t.Fatalf("%s: copy output %v/%v, clone %v/%v", name, vS, okS, vC, okC)
	}
}

// playHonest runs a pair of machines honestly to completion.
func playHonest(t *testing.T, ms [2]sim.Party, last int) {
	t.Helper()
	var in [2][]sim.Message
	for r := 1; r <= last; r++ {
		var next [2][]sim.Message
		for i, m := range ms {
			out, err := m.Round(r, in[i])
			if err != nil {
				t.Fatal(err)
			}
			route(&next, sim.PartyID(i+1), out)
		}
		in = next
	}
}

// route delivers a two-party round's messages into the next inboxes.
func route(next *[2][]sim.Message, from sim.PartyID, out []sim.Message) {
	for _, m := range out {
		m.From = from
		if m.To == sim.Broadcast {
			next[0] = append(next[0], m)
			next[1] = append(next[1], m)
		} else if m.To == 1 || m.To == 2 {
			next[m.To-1] = append(next[m.To-1], m)
		}
	}
}
