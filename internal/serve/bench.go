package serve

// SubmitPath packages the admission hot path — admit, release — for the
// perf harness, which pins it at zero allocations per cycle: load shedding
// must not generate garbage exactly when the server is busiest.
type SubmitPath struct {
	adm *admitter
}

// NewSubmitPathBench builds a warmed admission path: the tenant map has
// reached steady state, so cycles measure the per-job cost, not
// first-touch map growth.
func NewSubmitPathBench() *SubmitPath {
	p := &SubmitPath{adm: newAdmitter(64, 16)}
	if err := p.Cycle(); err != nil {
		panic(err) // a fresh admitter cannot reject
	}
	return p
}

// Cycle runs one admitted job's worth of control-plane work.
func (p *SubmitPath) Cycle() error {
	if je := p.adm.admit("bench"); je != nil {
		return je
	}
	p.adm.release("bench")
	return nil
}
