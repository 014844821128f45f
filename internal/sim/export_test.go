package sim

// Work returns the message rounds the arena's execution has stepped and
// the Round calls it has made on honest machines, summed over every run
// so far. Rounds a quiet run skips are not stepped.
func (a *Arena) Work() (rounds, honestCalls int) {
	return a.exec.work.rounds, a.exec.work.honestCalls
}
