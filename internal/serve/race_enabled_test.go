//go:build race

package serve

// raceEnabled reports whether the race detector instruments this build.
// Its instrumentation allocates on its own, and sync.Pool — behind
// encoding/json's encoder state — drops a share of what is put back, so
// allocation ceilings hold only without it.
const raceEnabled = true
