"""In-memory span tracer that wraps heatprobe's module attributes.

A span is (name, start, end, parent, attrs).  Wrapping a function replaces
it in every heatprobe module that holds the same object, so names pulled in
with ``from ... import`` are traced in each importing namespace too.  The
factorizations returned by ``splu`` are wrapped so that each triangular
solve is a span of its own.  Nothing is written until the job ends.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import sys
import time

PACKAGE = "heatprobe"


class _TracedLU:
    """A SuperLU factorization whose ``solve`` calls are recorded."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs, *args, **kwargs):
        n = self._lu.shape[0]
        cols = 1 if rhs.ndim == 1 else rhs.shape[1]
        # Computed from array sizes, ignoring caches: L+U values (8 B) and
        # row indices (4 B), plus reading the right-hand side and writing
        # the solution with both permutations.
        moved = cols * (12 * self._lu.nnz + 24 * n)
        with self._tracer.span("fem.lu_solve", bytes=moved):
            return self._lu.solve(rhs, *args, **kwargs)


class Tracer:
    """Records spans at heatprobe's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._factorized: set[bytes] = set()
        self.aliases: dict[str, list[str]] = {}

    # -- recording ---------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the block; yields its attributes."""
        index = self.open(name, **attrs)
        try:
            yield self.spans[index][4]
        finally:
            self.close(index)

    # -- patching ----------------------------------------------------------

    def wrap(self, module, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` in every heatprobe namespace holding it."""
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        holders = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
                    holders.append(f"{mod_name}.{key}")
        self.aliases[f"{module.__name__}.{attr}"] = holders

    def timed(self, name: str, label=None, after=None):
        """Wrapper factory: one span per call, named ``name``.

        Every span records ``via``, the module it was called from.
        ``label(args, kwargs, via)`` returns extra span attributes before
        the call; ``after(result, attrs)`` may add some from the result.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                via = sys._getframe(1).f_globals.get("__name__", "")
                extra = label(args, kwargs, via) if label is not None else {}
                with self.span(name, via=via, **extra) as attrs:
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result, attrs)
                return result
            return wrapper
        return make

    def install(self, modules) -> "Tracer":
        """Wrap the layer boundaries of the imported heatprobe modules."""
        mesh, fem, synth, scenario = (modules["mesh"], modules["fem"],
                                      modules["synth"], modules["scenario"])
        recon, cli = modules["reconstruction"], modules["cli"]

        self.wrap(mesh, "build_disk_mesh", self.timed("mesh.build_disk_mesh"))
        self.wrap(mesh, "build_transfer", self.timed("mesh.build_transfer"))
        self.wrap(mesh, "restrict", self.timed("mesh.restrict"))

        def factorize(original):
            def wrapper(matrix, *args, **kwargs):
                csc = matrix.tocsc()
                key = hashlib.blake2b(csc.indptr.tobytes()
                                      + csc.indices.tobytes()
                                      + csc.data.tobytes(),
                                      digest_size=16).digest()
                repeated = key in self._factorized
                self._factorized.add(key)
                with self.span("fem.splu", repeated=repeated) as attrs:
                    lu = original(matrix, *args, **kwargs)
                attrs["nnz"] = int(lu.nnz)
                return _TracedLU(lu, self)
            return wrapper
        self.wrap(fem, "splu", factorize)

        for kind in ("mass", "stiffness", "reaction"):
            self.wrap(fem, f"assemble_{kind}", self.timed(
                "fem.assemble", lambda a, k, via, kind=kind: {"kind": kind}))
        for kind in ("cell", "neumann"):
            self.wrap(fem, f"assemble_{kind}_load", self.timed(
                "fem.load", lambda a, k, via, kind=kind: {"kind": kind}))

        # the march kind follows the caller and the ``u`` argument
        def forward_kind(args, kwargs, via):
            if via == synth.__name__:
                kind = "reference"
            else:
                u = args[2] if len(args) > 2 else kwargs.get("u")
                kind = "background" if u is None else "forward"
            return {"kind": kind, "steps": args[1].steps}
        self.wrap(fem, "forward_solve", self.timed("fem.march", forward_kind))
        self.wrap(fem, "backward_adjoint_solve", self.timed(
            "fem.march", lambda a, k, via: {"kind": "adjoint",
                                            "steps": a[1].steps}))
        self.wrap(fem, "dirichlet_solve", self.timed(
            "fem.march", lambda a, k, via: {"kind": "dirichlet",
                                            "steps": a[1].steps}))

        def file_bytes(paths, attrs):
            attrs["bytes"] = sum(os.path.getsize(p) for p in paths)

        def read_bytes(result, attrs):
            file_bytes(attrs.pop("paths"), attrs)

        def trace_paths(args, kwargs, via):
            binary = kwargs.get("binary", args[2] if len(args) > 2 else False)
            ext = ".bin" if binary else ".txt"
            return {"paths": [f"{args[0]}_clean{ext}",
                              f"{args[0]}_noisy{ext}"]}

        self.wrap(synth, "save_measurement_set",
                  self.timed("synth.save", after=file_bytes))
        self.wrap(synth, "load_measurement_set",
                  self.timed("synth.load", trace_paths, read_bytes))
        self.wrap(synth, "sample_measurement",
                  self.timed("synth.sample_measurement"))
        self.wrap(scenario, "eval_truth", self.timed("scenario.eval_truth"))

        self.wrap(recon, "run_segment", self.timed(
            "reconstruction.run_segment", lambda a, k, via: {"index": a[0]}))
        self.wrap(recon, "local_dual", self.timed("reconstruction.local_dual"))
        self.wrap(recon, "apply_kernel",
                  self.timed("reconstruction.apply_kernel"))

        def accepted(result, attrs):
            attrs["accepted"] = bool(result)
        for scheme in ("dfp", "bfg"):
            self.wrap(recon, f"update_{scheme}", self.timed(
                "reconstruction.kernel_update", after=accepted))
        self.wrap(recon, "_save_checkpoint",
                  self.timed("reconstruction.checkpoint"))
        self.wrap(recon, "_load_checkpoint",
                  self.timed("reconstruction.resume"))

        self.wrap(cli, "compute_metrics", self.timed("cli.compute_metrics"))
        self.wrap(cli, "render_heatmap", self.timed("cli.heatmap"))
        self.wrap(cli, "write_pgm", self.timed(
            "cli.heatmap", lambda a, k, via: {"paths": [a[0]]}, read_bytes))
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

