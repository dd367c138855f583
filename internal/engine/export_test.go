package engine

// Probes returns the subtree costings the engine's monitoring bounds have
// made (engine.bound_probes).
func (e *Engine) Probes() int { return e.probes }
