package cup

import internal "cup/internal/cup"

// SimObserver returns the observer a simulated deployment's run emits to:
// nil until something listens.
func SimObserver(d *Deployment) internal.Observer {
	d.simMu.Lock()
	defer d.simMu.Unlock()
	return d.sim.Observer()
}
