package sim

// System is the contract between the generic round engine and a concrete
// simulated system (the streaming world in internal/experiment, or any other
// BSP-style model). The engine owns the clock; the system owns all state.
type System interface {
	// Step executes one full scheduling period starting at clock.Now().
	// Implementations typically fan work over a Pool in several internally
	// barrier-separated phases.
	Step(clock *Clock)
}

// Engine drives a System round by round over a virtual clock.
type Engine struct {
	clock  *Clock
	system System
}

// NewEngine builds an engine with a fresh clock of period tau.
func NewEngine(system System, tau Time) *Engine {
	return &Engine{clock: NewClock(tau), system: system}
}

// Clock exposes the engine's clock (read-only use expected).
func (e *Engine) Clock() *Clock { return e.clock }

// Run executes rounds scheduling periods and returns the final clock time.
func (e *Engine) Run(rounds int) Time {
	for r := 0; r < rounds; r++ {
		e.system.Step(e.clock)
		e.clock.Advance()
	}
	return e.clock.Now()
}
