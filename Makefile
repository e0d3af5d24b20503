# One-word entry points. Each target wraps bash bench/run.sh or go and
# edits nothing under bench/; profiles go to the git-ignored .bench_build/.
PROFILE_DIR ?= $(CURDIR)/.bench_build/profile

.PHONY: bench bench-aa profile verify

# The whole benchmark: untraced pass, traced pass, cells, differentials.
bench:
	bash bench/run.sh

# Two untraced suites back to back, each metric's difference beside its bound.
bench-aa:
	bash bench/run.sh -aa

# CPU and allocation profiles of one workload's timed repeats, untraced, seed 1:
#   make profile W=shard_ckpt
profile:
	@test -n "$(W)" || { echo "usage: make profile W=<workload>" >&2; exit 2; }
	mkdir -p $(PROFILE_DIR)
	bash bench/run.sh -workload $(W) -trace 0 -seed 1 \
		-cpuprofile $(PROFILE_DIR)/$(W).cpu.prof -memprofile $(PROFILE_DIR)/$(W).mem.prof
	@echo "read with: go tool pprof -top -cum .bench_build/bench $(PROFILE_DIR)/$(W).cpu.prof"
	@echo "      and: go tool pprof -sample_index=alloc_space -top .bench_build/bench $(PROFILE_DIR)/$(W).mem.prof"

# Tier-1, the benchmark module's own vet and tests, and the generated
# documents regenerated and compared with the committed copies.
verify:
	go build ./... && go test ./...
	cd bench && go vet ./... && go test ./...
	go generate ./...
	git diff --exit-code EXPERIMENTS.md RESULTS.md ARTIFACT_paper.json
