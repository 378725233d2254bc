.PHONY: all build test bench bench-smoke sva-smoke chaos-smoke serve-smoke examples check inline-guard compare-guard profile faults-smoke faults-determinism clean

all: build

build:
	dune build @all

test:
	dune runtest

# Everything CI runs: a clean build, the test suite, every example
# program (each exits non-zero on an unverified result), a guard that
# cross-module inlining is on, a guard that the per-edge code makes no
# polymorphic compare, and a guard against accidentally committing the
# dune build tree. It leaves every tracked file as it was.
check:
	dune build @all
	dune runtest
	$(MAKE) inline-guard
	$(MAKE) compare-guard
	$(MAKE) examples
	$(MAKE) sva-smoke
	$(MAKE) chaos-smoke
	$(MAKE) serve-smoke
	@if git ls-files --error-unmatch _build >/dev/null 2>&1 || \
	   git diff --cached --name-only --diff-filter=AM | grep -q '^_build/'; then \
	  echo "error: _build/ is tracked or staged; it must stay ignored" >&2; \
	  exit 1; \
	fi

# Cross-module inlining guard. Dune's dev profile compiles every library
# module with -opaque, which hides function bodies from other modules:
# the per-edge hot path (Reg.get, Fsm.state, Stats.tick, ...) stays a
# chain of real calls and the benchmark runs about 1.4-1.5x slower.
# dune-workspace selects the release profile to avoid that; this fails
# if any module under lib/ is compiled with -opaque again (a deleted
# workspace file, a profile override, a dune upgrade).
inline-guard:
	@targets=""; n=0; \
	for d in lib/*/; do \
	  lib=$$(sed -n 's/^ *(name \([a-z_0-9]*\)).*/\1/p' $$d/dune | head -1); \
	  for f in $$d*.ml; do \
	    m=$$(basename $$f .ml | sed 's/^./\U&/'); \
	    targets="$$targets $$d.$$lib.objs/native/$${lib}__$$m.cmx"; \
	    n=$$((n + 1)); \
	  done; \
	done; \
	rules=$$(dune rules $$targets) || exit 1; \
	found=$$(echo "$$rules" | grep -c '^ (targets'); \
	if [ "$$found" -ne "$$n" ]; then \
	  echo "error: dune printed $$found compile rules for $$n modules under lib/" >&2; \
	  exit 1; \
	fi; \
	if echo "$$rules" | grep -q -- -opaque; then \
	  echo "error: library modules are compiled with -opaque, so cross-module" >&2; \
	  echo "inlining is off (is dune-workspace missing, or a dev profile forced?)" >&2; \
	  exit 1; \
	fi; \
	echo "inline-guard: none of $$n library modules is compiled with -opaque"

# Polymorphic-compare guard. A structural compare (=, <>, <, compare, ...)
# at a type the compiler cannot prove immediate becomes a C call into the
# runtime (caml_lessthan, caml_equal, ...): a few per clock edge cost more
# than the edge's own work. This disassembles the per-edge modules (the
# engine and clock, the hardware primitives, the memories, the
# coprocessors and their ports, and the IMU, TLB, page-table walker and
# port bundle) and fails on any call to one of those primitives. Annotate
# the operand type (e.g. `(lo : int)`) to get a machine compare instead.
EDGE_MODULES := $(wildcard lib/sim/*.ml lib/hw/*.ml lib/mem/*.ml lib/coproc/*.ml) \
  lib/core/imu.ml lib/core/tlb.ml lib/core/walker.ml lib/core/cp_port.ml
compare-guard:
	@dune build @lib/all || exit 1; \
	n=0; bad=0; \
	for f in $(EDGE_MODULES); do \
	  d=$$(dirname $$f); \
	  lib=$$(sed -n 's/^ *(name \([a-z_0-9]*\)).*/\1/p' $$d/dune | head -1); \
	  m=$$(basename $$f .ml | sed 's/^./\U&/'); \
	  o=_build/default/$$d/.$$lib.objs/native/$${lib}__$$m.o; \
	  if [ ! -f $$o ]; then echo "error: no object $$o" >&2; exit 1; fi; \
	  hits=$$(objdump -dr $$o | awk '/>:$$/ { fn = $$2 } \
	    /caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)([^_a-z0-9]|$$)/ \
	    { print "  " fn " calls " $$NF }') || exit 1; \
	  if [ -n "$$hits" ]; then \
	    echo "error: polymorphic compare in $$f:" >&2; echo "$$hits" >&2; \
	    bad=1; \
	  fi; \
	  n=$$((n + 1)); \
	done; \
	if [ "$$bad" -ne 0 ]; then exit 1; fi; \
	echo "compare-guard: none of $$n per-edge modules calls a polymorphic compare"

# Host-side hot spots, per function: samples a fixed 1000-tenant fcfs
# `rvisim serve` and a 200-run fault campaign with gprofng (binutils >=
# 2.39) and prints the top 25 functions of each by exclusive CPU time.
# Experiments land under results/profile/. Not part of `make check`.
# The serve run reports its 1000 tenants starved and exits 1 (the
# starvation budget is below one fair round at that size); its profile
# is complete all the same, so that exit status is ignored.
PROFILE_TOP := 25
profile:
	@if ! command -v gprofng >/dev/null 2>&1; then \
	  echo "note: gprofng not found; install binutils >= 2.39 to profile"; \
	  exit 0; \
	fi; \
	set -e; \
	dune build bin/rvisim.exe; \
	mkdir -p results/profile; \
	gprofng collect app -p hi -O results/profile/serve.er \
	  ./_build/default/bin/rvisim.exe serve --tenants 1000 --requests 5000 \
	  --policy fcfs --seed 7 --jobs 1 >/dev/null 2>&1 || true; \
	gprofng collect app -p hi -O results/profile/campaign.er \
	  ./_build/default/bin/rvisim.exe faults --runs 200 --seed 42 --jobs 1 \
	  >/dev/null 2>&1; \
	for e in serve campaign; do \
	  echo "== $$e: top $(PROFILE_TOP) functions by exclusive CPU time"; \
	  gprofng display text -limit $(PROFILE_TOP) -functions \
	    results/profile/$$e.er; \
	done

# Seeded mini fault-injection campaign: fails on any uncaught exception or
# on a degraded run whose software fallback produced wrong output. Keeps a
# JSONL trace of every injection/retry/recovery decision for post-mortems.
# Artefacts land under results/ so the repo root stays clean.
faults-smoke:
	mkdir -p results
	dune exec bin/rvisim.exe -- faults --runs 100 --seed 2004 --jobs 1 \
	  --trace results/faults-smoke.trace.jsonl --csv results/faults-smoke.csv

# Determinism gate: the sharded runner must reproduce the serial
# campaign byte for byte.
faults-determinism:
	mkdir -p results
	dune exec bin/rvisim.exe -- faults --runs 100 --seed 2004 --jobs 1 \
	  --csv results/faults-j1.csv
	dune exec bin/rvisim.exe -- faults --runs 100 --seed 2004 --jobs 4 \
	  --csv results/faults-j4.csv
	cmp results/faults-j1.csv results/faults-j4.csv
	@echo "faults --jobs 4 is byte-identical to --jobs 1"

bench:
	dune exec bench/main.exe

# Quick campaign benchmark: appends one trajectory point (commit, host
# cores, runs/s) to a copy of BENCH_campaign.json under results/ and
# fails if serial throughput regressed more than 20% against the newest
# committed point. The gate compares runs/s, so a smaller --runs smoke
# still gates correctly. The tracked file is left as it is.
bench-smoke:
	mkdir -p results
	cp BENCH_campaign.json results/BENCH_campaign.json
	dune exec bin/rvisim.exe -- bench --runs 100 --jobs 2 --gate 0.2 \
	  --out results/BENCH_campaign.json

# Chaos smoke: a bounded generated campaign (any invariant violation
# inside the generated envelope is a real bug and fails the gate) plus a
# replay of every pinned repro under test/corpus/. Violations found by
# the campaign are shrunk to minimal repros under results/corpus/, which
# CI uploads as an artefact.
chaos-smoke:
	mkdir -p results/corpus
	dune exec bin/rvisim.exe -- chaos --seed 2004 --count 50 --jobs 2 \
	  --shrink --corpus results/corpus
	dune exec bin/rvisim.exe -- chaos --replay test/corpus/*.scenario

# Multi-tenant service smoke: every policy in both translation modes
# over a sharded campaign that must reproduce the serial digest, with
# every service invariant enforced (no starvation, clean interfaces,
# sane latency statistics). Appends one trajectory point per cell to a
# copy of BENCH_serve.json under results/ and gates against the newest
# committed points; the tracked file is left as it is.
serve-smoke:
	mkdir -p results
	cp BENCH_serve.json results/BENCH_serve.json
	dune exec bin/rvisim.exe -- serve --tenants 40 --requests 400 \
	  --policy all --translation both --seed 42 --jobs 2 \
	  --verify-determinism --csv results/serve-smoke.csv \
	  --json results/BENCH_serve.json --gate 0.5

# Translation-mode smoke: runs the adpcm ablation in both translation
# modes and asserts paper mode never touches the page-table walker while
# IOMMU/SVA mode always does — the cheap end-to-end guard that the mode
# switch is actually switching.
sva-smoke:
	dune exec bin/rvisim.exe -- ablate --translation --smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/adpcm_player.exe
	dune exec examples/idea_crypto.exe
	dune exec examples/portability.exe
	dune exec examples/multiprogramming.exe
	dune exec examples/trace_explorer.exe
	dune exec examples/codesign_flow.exe
	dune exec examples/fault_storm.exe

clean:
	dune clean
