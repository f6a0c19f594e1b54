package cup

import internal "cup/internal/cup"

// SimObserver returns the observer a simulated deployment's run emits to:
// nil until something listens.
func SimObserver(d *Deployment) internal.Observer {
	sr := d.rt.(*simRuntime)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.s.Observer()
}
