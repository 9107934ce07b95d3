package exec

import (
	"testing"
	"time"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// DropOnTrial opens the hand-driven worker to tests in package exec_test,
// which — unlike this package's own tests — may import tune and core and
// so run whole jobs over the plane. The worker has capacity 1 and honestly
// computes, streams and commits every trial it is granted, except the
// first one `drop` picks: after that trial's epoch `epochs` has been
// reported and answered, the stream just closes, as when a worker process
// dies mid-trial. DropOnTrial returns once that has happened.
func DropOnTrial(t *testing.T, serverURL string, drop func(Assignment) bool, epochs int) {
	t.Helper()
	w := dialHandWorker(t, serverURL, "dies-mid-trial", 1)
	trainers := map[TrainerConfig]*trainer.Runner{}
	for {
		// A job that ends without any trial being picked must fail the
		// test, not park it on a grant that never comes.
		_ = w.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		asgs, err := decodeGrant(w.expect(t, frameGrant))
		if err != nil {
			t.Fatal(err)
		}
		for _, asg := range asgs {
			tr, ok := trainers[asg.Trainer]
			if !ok {
				tr = asg.Trainer.NewRunner()
				trainers[asg.Trainer] = tr
			}
			dying, dead := drop(asg), false
			var obs trainer.EpochObserver
			if asg.StreamEpochs {
				obs = trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, st trainer.EpochStats) *params.SysConfig {
					if dead {
						return nil // the trainer cannot be interrupted; nobody is listening
					}
					dir := w.reportEpoch(t, asg, st)
					if dying && st.Epoch == epochs {
						w.conn.Close()
						dead = true
						return nil
					}
					return dir.Sys
				})
			}
			res, err := runBody(tr, asg, obs)
			if err != nil {
				t.Fatal(err)
			}
			if dead {
				return
			}
			w.commit(t, asg, res)
		}
	}
}
