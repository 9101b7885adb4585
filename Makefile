GO ?= go

.PHONY: build test lint fuzz check check-parallel smoke-serve smoke-online bench-inference bench-training bench-envs bench-evaluation bench-serving bench-scaling

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs minicost-vet, the repo's own analyzer suite (determinism,
# hotpath, shardcontract, obsnames, floatcmp). Zero findings is the gate;
# legitimate exceptions carry //minicost: directives at the offending line.
lint:
	$(GO) run ./cmd/minicost-vet ./...

# fuzz runs short native-fuzzing lanes over the two untrusted parsers: the
# trace CSV loader and the /v1/observe JSON body. One package per
# invocation (go test allows a single -fuzz pattern at a time).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzObserveBody -fuzztime $(FUZZTIME) ./internal/agentserver

# check is the CI gate: formatting, vet, minicost-vet, and the race
# detector across the short test suite (which includes the pooled-replica
# and batched-inference concurrency tests).
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race -short ./...

# check-parallel runs the kernel-level packages with the race detector and a
# fixed multi-core GOMAXPROCS so the parallel GEMM/backward fan-outs, the
# Parallelism training knob, and the par helpers actually execute their
# multi-goroutine branches (on a single-core runner they would silently
# degrade to the serial paths).
check-parallel:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/par ./internal/mat ./internal/nn ./internal/rl

# smoke-serve boots minicostd with a tiny bootstrap agent, exercises
# observe -> plan, and asserts /healthz answers and /metrics exposes the
# serving, training, and simulation metric families.
smoke-serve:
	sh scripts/smoke_serve.sh

# smoke-online boots minicostd with the continuous-learning loop enabled,
# drives drifting loadgen traffic through it, and asserts at least one
# fine-tune epoch ran, the drift score is exported on /metrics, and a
# candidate policy was hot-swapped into serving — then reboots from the
# learner checkpoint via -load-checkpoint.
smoke-online:
	sh scripts/smoke_online.sh

# bench-inference regenerates BENCH_inference.json (the batched inference
# engine at the paper and Quick configs, plus the worker-scaling ladder).
bench-inference:
	$(GO) run ./cmd/bench

# bench-training regenerates BENCH_training.json (the batched A3C training
# engine at the paper and Quick configs, one worker, plus the worker ladder
# and the envs-per-worker ladder of the vectorized lockstep engine).
bench-training:
	$(GO) run ./cmd/bench -mode training -o BENCH_training.json

# bench-envs reruns the training bench with the envs-per-worker ladder only
# (flag last-wins, so BENCH_ENVS_FLAGS can override the ladder, e.g.
# BENCH_ENVS_FLAGS="-envs 1,8 -train-steps 2000 -rounds 1" for a CI smoke).
bench-envs:
	$(GO) run ./cmd/bench -mode training -o BENCH_training.json -scale-workers "" $(BENCH_ENVS_FLAGS)

# bench-evaluation regenerates BENCH_evaluation.json (per-window vs swept
# Fig. 7 horizon evaluation on one core at the Quick and Full configs).
bench-evaluation:
	$(GO) run ./cmd/bench -mode evaluation -o BENCH_evaluation.json

# bench-serving regenerates BENCH_serving.json (sharded serving tier:
# observe ingestion throughput plus full vs incremental plan latency at
# 100k and 1M tracked files, with a shard sweep at the small population).
bench-serving:
	$(GO) run ./cmd/bench -mode serving -o BENCH_serving.json

# bench-scaling regenerates all three BENCH_*.json files including the
# worker-scaling ladder (workers 1/2/4/8 with GOMAXPROCS pinned per row and
# a scaling_efficiency field on every ladder row).
bench-scaling:
	$(GO) run ./cmd/bench -mode all
