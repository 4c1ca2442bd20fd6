"""The benchmark's and the acceptance tests' call forms still bind to
ttrally's public signatures.

``perfbench/workloads.py`` counts an exception as a failed operation, so a
renamed or dropped parameter would show there only as failures; binding each
call form here makes the same change fail a unit test instead.
"""

import inspect

import numpy as np

from ttrally import anticipate, ball, control, core, pipeline, synth

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
        (control.run_strategy, (X, X, X), {}),
        # tests/test_acceptance.py builds and steps racket poses this way, and
        # perfbench/tracer.py traces control.step_robot.
        (control.RacketPose, (X,), {}),
        (control.RacketPose, (), dict(position=X, orientation=X)),
        (control.step_robot, (X, X, X, X, X, X), {}),
        (control.RacketPose.normal, (X,), {}),
        # tests/test_acceptance.py builds, samples and fits drag pieces this way.
        (ball.StokesSegment, (), dict(b0=X, bT=X, T=X, k=X)),
        (ball.stokes_position, (X, X), {}),
        (ball.stokes_positions, (X, X), {}),
        (ball.fit_drag, (X, X, X, X, X, X), {}),
    ]
    unbound = []
    for func, args, kwargs in forms:
        try:
            inspect.signature(func).bind(*args, **kwargs)
        except TypeError as exc:
            unbound.append(f"{func.__module__}.{func.__qualname__}: {exc}")
    assert not unbound


def test_exchange_attributes_the_benchmark_reads():
    # perfbench/workloads.py builds a ContextWindow from an exchange's context,
    # names it by exchange_id and reads truth_at(h) as a Vec3-like point;
    # perfbench/tracer.py keys forecasts on the last frame's ball_world.
    ex = synth.generate_exchanges(3, 1, id_offset=5)[0]
    assert isinstance(ex.exchange_id, int) and ex.exchange_id == 5
    assert isinstance(ex.context_times, np.ndarray) and ex.context_times.dtype == float
    frames = list(ex.context)
    assert frames and all(isinstance(f, core.Frame3D) for f in frames)
    ctx = anticipate.ContextWindow(times=ex.context_times, frames=frames)
    ball = ctx.frames[-1].ball_world
    truth = ex.truth_at(0.2)
    for point in (ball, truth):
        assert isinstance(point, core.Vec3)
        assert all(type(getattr(point, axis)) is float for axis in "xyz")
