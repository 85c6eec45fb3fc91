.PHONY: build test experiments mc-smoke mc-long fuzz-smoke fuzz-long fault-smoke faults-long portfolio-smoke portfolio-long feasibility resume-smoke coverage clean

build:
	dune build @all

test:
	dune runtest

# Full reproduction report (EXPERIMENTS.md's tables, the X6/X7/X12
# scaling rows included).  The output file is regenerated, not committed
# (.gitignore'd).
experiments:
	dune build bin/experiments.exe
	cd $(CURDIR) && ./_build/default/bin/experiments.exe | tee experiments_output.txt

# The quick cross-engine differential pass that runtest already includes.
mc-smoke:
	dune build @mc-smoke

# The full differential matrix: every 3-processor wiring, the unbounded
# single-group 3-processor reduction run, deeper level bounds, a slice of
# the C2 cyclic-refinement refutation, and 500-case QCheck properties.
# Several minutes.
mc-long:
	dune build test/test_par_explorer.exe
	MC_LONG=1 ./_build/default/test/test_par_explorer.exe

# The bounded fuzzing pass that runtest already includes (a few seconds).
fuzz-smoke:
	dune build @fuzz-smoke

# A serious fuzzing campaign over every target (several minutes).  The
# planted double-collect bug must be found; the paper's algorithms must
# stay clean.  Override SEED/ITERS to explore further.
SEED ?= 0
ITERS ?= 200000
fuzz-long:
	dune build bin/fuzz.exe
	dune exec --no-build bin/fuzz.exe -- --protocol double_collect \
	  --iterations $(ITERS) --seed $(SEED) --expect-bug
	dune exec --no-build bin/fuzz.exe -- --protocol snapshot \
	  --iterations $(ITERS) --seed $(SEED)
	dune exec --no-build bin/fuzz.exe -- --protocol renaming \
	  --iterations $(ITERS) --seed $(SEED)
	dune exec --no-build bin/fuzz.exe -- --protocol consensus \
	  --iterations $(ITERS) --seed $(SEED) --time-budget 120

# The bounded fault-fuzz pass that runtest already includes.
fault-smoke:
	dune build @fault-smoke

# Serious fault-injection campaigns (several minutes).  The paper's
# algorithms must keep their safety properties under crash-stop,
# crash-recovery, write-omission and stale-read plans; the stuck-register
# campaigns are expected to break wait-freedom (a stuck register is a
# permanently covered one, so the Section-2.1 lower bound bites) — hence
# --expect-bug.  Override SEED/FITERS to explore further.
FITERS ?= 50000
faults-long:
	dune build bin/fuzz.exe bin/anonsim.exe
	for prof in crash recover omission stale; do \
	  for proto in snapshot renaming consensus; do \
	    dune exec --no-build bin/fuzz.exe -- --protocol $$proto \
	      --iterations $(FITERS) --seed $(SEED) --fault-profile $$prof \
	      || exit 1; \
	  done; \
	done
	dune exec --no-build bin/fuzz.exe -- --protocol snapshot \
	  --iterations $(FITERS) --seed $(SEED) --fault-profile stuck --expect-bug
	dune exec --no-build bin/anonsim.exe -- check-snapshot -n 2 --crashes 2

# The quick portfolio pass that runtest already includes: the n=2
# differential matrix, planted-bug replay, the quick (n=2) feasibility
# sweep and short campaigns on the three portfolio targets.
portfolio-smoke:
	dune build @portfolio-smoke

# The heavy portfolio cells (n=3 deadlock + clean leader grid), serious
# campaigns on the three portfolio targets — crash/recover/omission/stale
# must stay clean, stuck breaks the budgeted weak leader (--expect-bug,
# same convention as faults-long) — and the full feasibility map.
portfolio-long:
	dune build test/test_portfolio.exe bin/fuzz.exe bin/anonsim.exe
	PORTFOLIO_LONG=1 ./_build/default/test/test_portfolio.exe
	for prof in none crash recover omission stale; do \
	  for proto in rt_mutex naming weak_leader; do \
	    dune exec --no-build bin/fuzz.exe -- --protocol $$proto \
	      --iterations $(FITERS) --seed $(SEED) --fault-profile $$prof \
	      || exit 1; \
	  done; \
	done
	dune exec --no-build bin/fuzz.exe -- --protocol weak_leader \
	  --iterations $(FITERS) --seed $(SEED) --fault-profile stuck --expect-bug
	$(MAKE) feasibility

# The full feasibility map (n=2 and n=3 rows).  The n=3 clean mutex
# cell sweeps 5.5G states across 2467 wiring classes with the packed
# single-word engine — budget ~45 minutes on one core.  Writes
# FEASIBILITY.json.  The quick n=2 map runs inside @portfolio-smoke.
feasibility:
	dune build bin/anonsim.exe
	dune exec --no-build bin/anonsim.exe -- feasibility -o FEASIBILITY.json

# Kill-and-resume differential smoke: run the quick feasibility sweep to
# completion for a reference map, run it again but SIGINT it ~1s in (exit
# 0 if it won the race, 4 if interrupted), then rerun with --resume so
# the journal replays the finished cells — and require the resumed map
# to be byte-identical to the uninterrupted reference.  The second leg
# does the same through the engine checkpoints: a 0.02 s per-cell budget
# (a quarter of what the packed mutex (2,5) cell takes) must stop at
# least one cell mid-exploration (exit 3) and leave its
# *.ckpt under --ckpt-dir, and the unbudgeted --resume must finish that
# cell from the checkpoint with a byte-identical map.  The third leg
# does the same for the snapshot sweep checkpoints of check-snapshot,
# exact and --fingerprint: a zero wall budget must exit 3 leaving the
# checkpoint, and --resume must print the uninterrupted output byte for
# byte and remove the checkpoint.  CI runs this on
# every push; it is the end-to-end check behind the durability suite.
resume-smoke:
	dune build bin/anonsim.exe
	rm -rf _resume_smoke && mkdir -p _resume_smoke
	./_build/default/bin/anonsim.exe feasibility --quick \
	  -o _resume_smoke/reference.json
	( ./_build/default/bin/anonsim.exe feasibility --quick \
	     -o _resume_smoke/resumed.json & \
	   pid=$$!; sleep 1; kill -INT $$pid 2>/dev/null; wait $$pid; st=$$?; \
	   [ $$st -eq 0 ] || [ $$st -eq 4 ] )
	./_build/default/bin/anonsim.exe feasibility --quick --resume \
	  -o _resume_smoke/resumed.json
	cmp _resume_smoke/reference.json _resume_smoke/resumed.json
	@echo "resume-smoke: resumed map byte-identical to uninterrupted run"
	./_build/default/bin/anonsim.exe feasibility --quick \
	  --ckpt-dir _resume_smoke/ckpt -o _resume_smoke/ckpt-reference.json
	( ./_build/default/bin/anonsim.exe feasibility --quick \
	     --ckpt-dir _resume_smoke/ckpt --max-seconds 0.02 \
	     -o _resume_smoke/ckpt-resumed.json; \
	   st=$$?; [ $$st -eq 3 ] )
	ls _resume_smoke/ckpt/*.ckpt
	./_build/default/bin/anonsim.exe feasibility --quick \
	  --ckpt-dir _resume_smoke/ckpt --resume \
	  -o _resume_smoke/ckpt-resumed.json
	cmp _resume_smoke/ckpt-reference.json _resume_smoke/ckpt-resumed.json
	@echo "resume-smoke: map resumed from engine checkpoints byte-identical"
	for mode in "" --fingerprint; do \
	  ./_build/default/bin/anonsim.exe check-snapshot -n 2 $$mode \
	    > _resume_smoke/snapshot-reference.txt || exit 1; \
	  ./_build/default/bin/anonsim.exe check-snapshot -n 2 $$mode \
	    --checkpoint _resume_smoke/snapshot.ckpt --max-seconds 0 > /dev/null; \
	  [ $$? -eq 3 ] && [ -f _resume_smoke/snapshot.ckpt ] || exit 1; \
	  ./_build/default/bin/anonsim.exe check-snapshot -n 2 $$mode \
	    --checkpoint _resume_smoke/snapshot.ckpt --resume \
	    > _resume_smoke/snapshot-resumed.txt || exit 1; \
	  cmp _resume_smoke/snapshot-reference.txt \
	    _resume_smoke/snapshot-resumed.txt || exit 1; \
	  [ ! -e _resume_smoke/snapshot.ckpt ] || exit 1; \
	done
	@echo "resume-smoke: check-snapshot resumed from its sweep checkpoint byte-identical"

# Line-coverage report over the library code.  Requires the bisect_ppx
# backend (`opam install bisect_ppx`); the (instrumentation) stanzas in
# the lib dune files are inert without it, so regular builds and tests
# never pay for it or need it installed.  Writes the per-file summary to
# _coverage/summary.txt and an HTML report to _coverage/html/.
coverage:
	@command -v bisect-ppx-report >/dev/null 2>&1 || \
	  { echo "coverage: bisect_ppx is not installed (opam install bisect_ppx)"; exit 1; }
	rm -rf _coverage && mkdir -p _coverage
	find . -name '*.coverage' -not -path './_opam/*' -delete
	BISECT_FILE=$(CURDIR)/_coverage/bisect \
	  dune runtest --force --instrument-with bisect_ppx
	bisect-ppx-report summary --per-file _coverage/bisect*.coverage \
	  | tee _coverage/summary.txt
	bisect-ppx-report html -o _coverage/html _coverage/bisect*.coverage
	@echo "coverage: open _coverage/html/index.html"

clean:
	dune clean
	rm -rf _resume_smoke _coverage
	find . -name '*.coverage' -not -path './_opam/*' -delete 2>/dev/null || true
