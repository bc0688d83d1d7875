package harness

import (
	"sync"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// Each app's per-accelerator spec memo is invisible in results: for every
// app, machine and precision, runs of one problem that first ran on the
// other machine return exactly what a cold problem returns, also when two
// goroutines run that problem at once. The direct runs bypass the run
// memo, so every run characterizes through the problem's own spec memo.
// OpenCL and OpenACC between them use both of miniFE's SpMV forms.
func TestSpecMemoRunsMatchColdProblems(t *testing.T) {
	machines := []func() *sim.Machine{sim.NewAPU, sim.NewDGPU}
	models := []modelapi.Name{modelapi.OpenCL, modelapi.OpenACC}
	for _, app := range AppNames {
		for _, prec := range []timing.Precision{timing.Single, timing.Double} {
			for i, mk := range machines {
				w := newWorkloads(ScaleSmoke, prec)
				r, _ := w.runnerByName(app)
				r.run(machines[1-i](), modelapi.OpenCL)
				for _, model := range models {
					cold, _ := newWorkloads(ScaleSmoke, prec).runnerByName(app)
					want := cold.run(mk(), model)
					var got [2]appcore.Result
					var wg sync.WaitGroup
					for g := range got {
						wg.Add(1)
						go func() {
							defer wg.Done()
							got[g] = r.run(mk(), model)
						}()
					}
					wg.Wait()
					for g := range got {
						if f := resultDiff(got[g], want); f != "" {
							t.Errorf("%s %s %s on %s, goroutine %d: %s differs from a cold problem's run",
								app, prec, model, want.Machine, g, f)
						}
					}
				}
			}
		}
	}
}
