"""The benchmark's trace mode names functions and methods of lattes; every
one of them must still resolve, or `bench/run.py --trace 1` breaks."""

import importlib.util
import pathlib

import lattes
import lattes.cli  # imports every module the tracer reaches

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_uninstalls():
    tracing = _load_tracing()
    names = tracing.SPANS + tracing.COUNTERS
    originals = [tracing._resolve(getattr(lattes, mod), path)[2] for mod, path, _ in names]
    tracer = tracing.Tracer()
    tracer.install(lattes)
    try:
        for (mod, path, _), fn in zip(names, originals):
            assert tracing._resolve(getattr(lattes, mod), path)[2].__wrapped__ is fn, path
    finally:
        tracer.uninstall()
    for (mod, path, _), fn in zip(names, originals):
        assert tracing._resolve(getattr(lattes, mod), path)[2] is fn, path
