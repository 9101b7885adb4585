package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/core"
	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/online"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// Learner settings at minicostd -online defaults.
const (
	finetuneEvery  = 16
	finetuneSteps  = 2048
	finetuneEnvs   = 8
	driftThreshold = 0.25
)

// boot is what minicostd holds after bootstrapping without a checkpoint:
// the serving agent, the bootstrap trainer's critic (the learner's warm
// start), the cost model and the bootstrap trace (the drift baseline).
type boot struct {
	agent    *rl.Agent
	critic   []float64
	model    *costmodel.Model
	baseline *trace.Trace
	// trainSteps and trainSeconds time sys.Train alone.
	trainSteps   int64
	trainSeconds float64
}

// bootstrap trains the serving policy the way minicostd does without a
// checkpoint: a 500-file, 42-day synthetic trace, core.System training
// with one worker and the fixed default seed, then the simulated replay of
// the bootstrapped policy that puts the bill on /metrics.
func bootstrap(w workload) (*boot, error) {
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 500
	gen.Days = 42
	tr, err := trace.Generate(gen)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.TrainSteps = w.bootSteps
	cfg.A3C.Net = w.net
	cfg.A3C.Workers = 1
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := sys.Train(tr); err != nil {
		return nil, err
	}
	trainSeconds := time.Since(start).Seconds()
	if _, err := sys.Run(tr); err != nil {
		return nil, err
	}
	b := &boot{
		agent:        sys.Agent(),
		model:        sys.Model(),
		baseline:     tr,
		trainSteps:   sys.Trainer().Steps(),
		trainSeconds: trainSeconds,
	}
	if w.online {
		_, b.critic = sys.Trainer().ParamVectors()
	}
	return b, nil
}

// finetuneConfig is minicostd's fine-tune trainer configuration at its
// -online defaults: one worker, eight vectorized environments, serial GEMM.
func finetuneConfig(net rl.NetConfig) rl.A3CConfig {
	cfg := core.DefaultConfig().A3C
	cfg.Workers = 1
	cfg.EnvsPerWorker = finetuneEnvs
	cfg.Parallelism = 0
	cfg.Net = net
	return cfg
}

// newTrainer builds a fine-tune trainer publishing the boot agent's actor
// and the bootstrap critic, as minicostd's trainerForAgent does.
func newTrainer(b *boot) (*rl.A3C, error) {
	tr, err := rl.NewA3C(finetuneConfig(b.agent.Net))
	if err != nil {
		return nil, err
	}
	if err := tr.SetParamVectors(b.agent.ParamVector(), b.critic); err != nil {
		return nil, err
	}
	return tr, nil
}

// stack is one serving stack wired as minicostd wires it, listening on a
// loopback port.
type stack struct {
	srv     *agentserver.Server
	learner *online.Learner
	trainer *rl.A3C
	hs      *http.Server
	url     string
	served  chan error
}

// newStack builds the server (and learner, when the workload runs one) from
// b and starts serving. With rec non-nil the handler and the learner tap are
// wrapped in span recorders. The learner's background loop is not started:
// the replay triggers epochs itself on fixed days (Learner.RunEpoch) so that
// hot swaps land at the same point of every run.
func newStack(w workload, b *boot, rec *recorder) (*stack, error) {
	srv, err := agentserver.NewWithConfig(b.agent, pricing.Hot, agentserver.Config{})
	if err != nil {
		return nil, err
	}
	st := &stack{srv: srv}
	mux := http.NewServeMux()
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = rec.middleware(h)
	}
	mux.Handle("/v1/", h)
	if w.online {
		if st.trainer, err = newTrainer(b); err != nil {
			return nil, err
		}
		st.learner, err = online.New(online.Config{
			Trainer:        st.trainer,
			Serving:        srv,
			Model:          b.model,
			Reward:         mdp.DefaultReward(),
			Initial:        pricing.Hot,
			FinetuneEvery:  finetuneEvery,
			FinetuneSteps:  finetuneSteps,
			DriftThreshold: driftThreshold,
			SwapGate:       true,
		})
		if err != nil {
			return nil, err
		}
		st.learner.SetBaselineFromTrace(b.baseline)
		var tap agentserver.ObserveTap = st.learner
		if rec != nil {
			tap = rec.tap(st.learner)
		}
		srv.SetTap(tap)
		mux.Handle("/v1/learner", st.learner.Handler())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	return st, nil
}

// close shuts the listener down and waits for the serve goroutine.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
