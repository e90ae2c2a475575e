"""The pass manager: runs passes, consults the cache, records telemetry.

Every pass execution or cache hit is visible two ways:

* **obs metrics** (when observability is enabled):
  ``pipeline.pass.<name>.runs`` / ``pipeline.pass.<name>.cache_hits``
  counters plus a ``pass.<name>`` span around each real execution —
  this is what the warm-cache tests assert against;
* **manager counters** (always on, cheap dicts): ``runs``/``hits`` per
  pass, snapshotable, used by the batch driver to report per-point
  cache effectiveness without requiring obs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro import faults, obs
from repro.errors import CompileError, ReproError
from repro.obs import provenance
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.passes import Pass, PassContext

__all__ = ["PassManager"]


class PassManager:
    """Runs :class:`Pass` objects against an :class:`ArtifactCache`.

    ``cache=None`` disables artifact reuse entirely (every pass always
    executes) — the CLI's ``--no-cache`` path.
    """

    def __init__(self, cache: Optional[ArtifactCache]):
        self.cache = cache
        self.runs: Dict[str, int] = {}
        self.hits: Dict[str, int] = {}

    def execute(self, pass_: Pass, ctx: PassContext) -> Any:
        """Produce the pass's output artifact (cache or run), register
        it in ``ctx.artifacts``, and return it."""
        key = pass_.cache_key(ctx) if self.cache is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not MISS:
                value, records = provenance.unwrap(cached)
                self.hits[pass_.name] = self.hits.get(pass_.name, 0) + 1
                obs.inc(f"pipeline.pass.{pass_.name}.cache_hits")
                obs.event("pipeline.cache_hit", cat="pipeline",
                          pass_name=pass_.name, key=key[:12])
                if records:
                    ctx.provenance.extend(records)
                ctx.artifacts[pass_.output] = value
                return value
        with obs.span(f"pass.{pass_.name}", cat="pipeline",
                      program=ctx.program.name,
                      scheme=ctx.scheme.value if ctx.scheme else None,
                      nprocs=ctx.nprocs):
            try:
                # The stall fires inside the pass span so the injected
                # delay is booked against this pass in the wall-time
                # ledger (the perf CI job's attribution target).
                faults.maybe_pass_stall(pass_.name)
                faults.check(
                    "pass",
                    pass_name=pass_.name,
                    app=ctx.program.name,
                    scheme=ctx.scheme.value if ctx.scheme else None,
                    nprocs=ctx.nprocs,
                )
                with provenance.capture() as records:
                    value = pass_.run(ctx)
            except ReproError:
                raise  # already typed, context attached at the source
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                raise CompileError(
                    f"pass {pass_.name!r} failed: "
                    f"{type(exc).__name__}: {exc}",
                    pass_name=pass_.name,
                    app=ctx.program.name,
                    scheme=ctx.scheme.value if ctx.scheme else None,
                    nprocs=ctx.nprocs,
                ) from exc
        ctx.provenance.extend(records)
        self.runs[pass_.name] = self.runs.get(pass_.name, 0) + 1
        obs.inc(f"pipeline.pass.{pass_.name}.runs")
        if key is not None:
            # Records travel with the artifact so cache hits replay the
            # exact decision log of the original run.
            # Bare values are stored when no decision fired, keeping
            # cache contents for decision-free passes unchanged.
            if records:
                self.cache.put(key, provenance.ArtifactEnvelope(value, list(records)))
            else:
                self.cache.put(key, value)
        ctx.artifacts[pass_.output] = value
        return value

    def seed(self, key: Optional[str], value: Any) -> None:
        """Install an artifact under an explicit key (e.g. marking a
        restructured program as its own fixed point)."""
        if key is not None and self.cache is not None:
            self.cache.put(key, value)

    def counts(self) -> Dict[str, Dict[str, int]]:
        """Snapshot of per-pass execution/hit counts."""
        return {"runs": dict(self.runs), "hits": dict(self.hits)}

    def total_runs(self) -> int:
        return sum(self.runs.values())
