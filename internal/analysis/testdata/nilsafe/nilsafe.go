// Package nilsafe exercises the nilsafe analyzer: exported
// pointer-receiver methods of marked instrument types must begin with
// a nil-receiver guard (or delegate to a guarded sibling), and inside
// covered packages a type that guards without the marker is told to
// declare it.
package nilsafe

// Probe is an instrument with the nil-no-op contract.
//
// dynplace:nilsafe
type Probe struct{ n int }

// Add is guarded: the canonical instrument method shape.
func (p *Probe) Add(d int) {
	if p == nil {
		return
	}
	p.n += d
}

// AddOne delegates to a guarded sibling — the one-liner wrapper
// pattern ObserveSince uses.
func (p *Probe) AddOne() { p.Add(1) }

// Bad lacks the guard.
func (p *Probe) Bad() int { // want `exported method Probe\.Bad on dynplace:nilsafe type must begin with a nil-receiver guard`
	return p.n
}

// reset is unexported: internal helpers may assume a live receiver.
func (p *Probe) reset() { p.n = 0 }

//dynplace:ignore nilsafe panicking on nil here is deliberate, to surface miswiring in tests
func (p *Probe) MustAdd(d int) {
	p.n += d
}

// Gauge nil-guards its method but does not carry the marker; in a
// covered package the analyzer demands the declaration.
type Gauge struct{ v int }

func (g *Gauge) Set(v int) { // want `Gauge\.Set nil-guards its receiver but type Gauge lacks the // dynplace:nilsafe marker`
	if g == nil {
		return
	}
	g.v = v
}

// Plain has no marker and no guards: out of scope.
type Plain struct{ v int }

// Bump is an ordinary method on an ordinary type.
func (p *Plain) Bump() { p.v++ }
