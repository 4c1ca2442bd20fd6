"""The benchmark's call forms still bind to ttrally's public signatures.

``perfbench/workloads.py`` counts an exception as a failed operation, so a
renamed or dropped parameter would show there only as failures; binding each
call form here makes the same change fail a unit test instead.
"""

import inspect

from ttrally import anticipate, control, core, pipeline, synth

X = object()  # any argument: binding checks names and arity, not values


def test_benchmark_call_forms_bind():
    forms = [
        (synth.generate_scene, (X,),
         dict(fps=X, n_hits=X, noise_px=X, video_id=X, seed=X)),
        (pipeline.reconstruct_point, (X,), dict(point_id=X)),
        (core.Point, (), dict(frames=X, hits=X, fps=X, point_id=X)),
        (anticipate.run_conformal_study, (),
         dict(seed=X, n_cal=X, n_test=X, k_members=X, alpha=X)),
        (synth.generate_exchanges, (X, X), dict(id_offset=X)),
        (anticipate.physics_baseline_ensemble, (X, X), {}),
        (anticipate.ContextWindow, (), dict(times=X, frames=X)),
        (anticipate.build_regions, (X, X, X, X), {}),
        (control.run_experiment, (), dict(seed=X, n_episodes=X, n_cal=X)),
        (control.prepare_anticipation, (X, X, X), {}),
        (control.run_strategy, (X, X, X, X, X), {}),
    ]
    unbound = []
    for func, args, kwargs in forms:
        try:
            inspect.signature(func).bind(*args, **kwargs)
        except TypeError as exc:
            unbound.append(f"{func.__module__}.{func.__qualname__}: {exc}")
    assert not unbound
