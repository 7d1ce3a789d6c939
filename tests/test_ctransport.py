"""The compiled history-transport kernel against its LAPACK/BLAS reference.

The kernel must give the reference's bits: on every history grid of the
stepping presets and the wide benchmark, for random and zero profiles in
either memory order, as a strided view or as a view of the stepper's own
buffer, and through whole runs. The C source must compile warning-free under
flags that keep every rounding. Building, caching and every fallback are
checked in a temporary cache directory.
"""
import ctypes
import inspect
import json
import os
import platform
import re
import shutil
import stat
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoplate import config as cfgmod
from memoplate import ctransport
from memoplate.cli import main
from memoplate.dynamics import MidpointStepper, TransportStepper, evolve
from memoplate.limits import compare_trajectories
from memoplate.modes import (Domain, Params, build_phase_space, dirichlet_eigenvalues,
                             initial_data_preset)

NO_CC = "no C compiler (cc) on PATH: the steppers run tbtrs"


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.fixture()
def compiled():
    kernel, status = ctransport.kernel()
    if kernel is ctransport.Reference:
        pytest.skip(f"compiled kernel unavailable ({status})")
    return kernel


def reference_stepper(monkeypatch, grid, dt, modes) -> TransportStepper:
    with monkeypatch.context() as m:
        m.setattr(ctransport, "kernel", lambda: (ctransport.Reference, "tbtrs: the reference"))
        return TransportStepper(grid, dt, modes)


def preset_config(name):
    if name != "wide-simulate":
        return cfgmod.preset(name)
    # the benchmark's wide-simulate point: 128 modes on a rectangle,
    # 1600 + 1600 history nodes
    cfg = cfgmod.default_config()
    cfg.raw["domain"].update(kind="rectangle", lengths="3.141592653589793, 2.718281828459045",
                             modes="128")
    cfg.raw["parameters"].update(sigma="0.5", tau="0.25", eps="0.5")
    cfg.raw["integrator"].update(dt="0.001", grid_size="1600")
    return cfg


@pytest.mark.parametrize("name", ["thm-edec", "thm-gp1", "wide-simulate"])
def test_kernel_matches_tbtrs_and_ger_bitwise(compiled, monkeypatch, name):
    cfg = preset_config(name)
    rng = np.random.default_rng(7)
    checked = 0
    for point in cfg.parameter_grid():
        space, _, dt = cfg.point(*point)
        n = space.modes.count
        for grid in (space.eta_grid, space.xi_grid):
            if grid is None:
                continue
            ref = reference_stepper(monkeypatch, grid, dt, n)
            fast = TransportStepper(grid, dt, n)
            assert fast._backend is compiled and ref._backend is ctransport.Reference
            assert same_bits(fast.unit_response, ref.unit_response)
            shape = (grid.spacing.size, n)
            for layout in ("F", "C", "view"):
                for profile in (rng.standard_normal(shape), np.zeros(shape)):
                    if layout == "view":
                        # every other column of a wider C-ordered array
                        profile = np.repeat(profile, 2, axis=1)[:, ::2]
                    else:
                        profile = np.asarray(profile, order=layout)
                    assert same_bits(fast.partial(profile), ref.partial(profile))
                    for drive in (rng.standard_normal(n), np.zeros(n)):
                        want = ref.complete(ref.partial(profile), drive)
                        got = fast.complete(fast.partial(profile), drive)
                        assert same_bits(got, want)
            # consecutive steps through the steppers' own buffers
            p_ref = p_fast = rng.standard_normal(shape)
            for _ in range(3):
                drive = rng.standard_normal(n)
                p_ref = ref.complete(ref.partial(p_ref), drive)
                p_fast = fast.complete(fast.partial(p_fast), drive)
                assert same_bits(p_fast, p_ref)
            checked += 1
    assert checked == 2 * len(cfg.parameter_grid())


@pytest.mark.parametrize("forced", [False, True], ids=["kernel", "reference"])
def test_view_of_own_buffer_gives_the_bits_of_its_copy(monkeypatch, small_space, forced):
    # a view is not the buffer object, so it is copied into buffer 1 before
    # the solve writes buffer 0, whichever buffer it views
    if not forced and ctransport.kernel()[0] is ctransport.Reference:
        pytest.skip(f"compiled kernel unavailable ({ctransport.kernel()[1]})")
    grid, n = small_space.eta_grid, small_space.modes.count

    def stepper():
        if forced:
            return reference_stepper(monkeypatch, grid, 1e-3, n)
        return TransportStepper(grid, 1e-3, n)

    rng = np.random.default_rng(11)
    tr, drive = stepper(), rng.standard_normal(n)
    p0 = tr.complete(tr.partial(rng.standard_normal((grid.size, n))), drive)
    p1 = tr.complete(tr.partial(p0), drive)
    assert p0 is not p1
    for view in (p0[:], p1[:], p0[::-1], p1[:, ::-1]):
        copy = view.copy()
        fresh = stepper()
        want = fresh.complete(fresh.partial(copy), drive)
        got = tr.complete(tr.partial(view), drive)
        assert same_bits(got, want)


def test_source_compiles_warning_free_under_exact_flags(tmp_path):
    # bitwise equality with the reference rests on the compiler rounding
    # every operation as written
    assert "-ffp-contract=off" in ctransport.FLAGS
    assert not {"-ffast-math", "-Ofast"} & set(ctransport.FLAGS)
    if shutil.which("cc") is None:
        pytest.skip(NO_CC)
    run = subprocess.run(["cc", *ctransport.FLAGS, "-std=c11", "-Wall", "-Wextra", "-Werror",
                          "-fsyntax-only", "-x", "c", "-"], input=ctransport.SOURCE,
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_empty_blocks_never_reach_the_kernel(compiled, monkeypatch, small_space):
    sizes, finishes = [], []

    class Recording:
        arguments = staticmethod(compiled.arguments)

        def solve(self, n, *args):
            sizes.append(n.value)
            compiled.solve(n, *args)

        def complete(self, n, *args):
            sizes.append(n.value)
            compiled.complete(n, *args)

        def finish(self, modes, ne, nx, *args):
            # the node counts of the histories the finish completes
            finishes.append(1)
            sizes.extend(n.value for n in (ne, nx) if n.value)
            compiled.finish(modes, ne, nx, *args)

        def sums(self, modes, ne, nx, *args):
            assert ne.value in (0, 40) and nx.value in (0, 40) and ne.value + nx.value
            compiled.sums(modes, ne, nx, *args)

    monkeypatch.setattr(ctransport, "kernel", lambda: (Recording(), "compiled recording"))
    for params, active in ((Params(0.5, 0.0, 0.0), 1), (Params(0.0, 0.5, 0.0), 1),
                           (Params(0.0, 0.0, 0.0), 0)):
        space = build_phase_space(small_space.modes, params, grid_size=40)
        z0 = initial_data_preset("single-mode", space, 0)
        sizes.clear()
        finishes.clear()
        evolve(space, z0, 1e-2, 0.1)
        compare_trajectories(space, z0, 1e-2, 0.1)
        # a solve and a completion per active block and step: in evolve, and
        # in compare_trajectories for the system and its reconstructed
        # histories
        assert len(sizes) == 2 * 10 * (1 + 2) * active
        assert all(size == 40 for size in sizes)
        # one finish per step of evolve's stepper and of compare_trajectories'
        # system and collapsed steppers, with or without histories
        assert len(finishes) == 10 * 3


def one_mode_space():
    modes = dirichlet_eigenvalues(Domain("interval", (np.pi,)), 1)
    return build_phase_space(modes, Params(0.5, 0.25, 0.5), grid_size=80)


def test_forced_fallback_is_bitwise_equal(compiled, monkeypatch, small_space):
    # one mode too, where the einsum the reference once used summed in
    # another order
    for space in (small_space, one_mode_space()):
        z0 = initial_data_preset("spectral-decay 6", space, 0, with_history=True)
        runs = []
        for forced in (False, True):
            with monkeypatch.context() as m:
                if forced:
                    m.setattr(ctransport, "kernel", lambda: (ctransport.Reference, "tbtrs: forced"))
                traj = evolve(space, z0, 1e-2, 0.5)
                comp = compare_trajectories(space, z0, 1e-2, 0.5, t0=0.1)
            runs.append((traj.u, traj.v, traj.theta, traj.modal_energy, traj.history_energy,
                         traj.imu, traj.ibe, traj.step_energy, traj.final_state.eta,
                         traj.final_state.xi, comp.distance, comp.distance_proof,
                         comp.energy_full, comp.energy_limit, comp.max_step_increase,
                         comp.eta_mu_norm, comp.eta_nu_norm, comp.xi_norm))
        assert all(same_bits(a, b) for a, b in zip(*runs))


# (sigma, tau, eps): eta carries mu and nu, xi carries beta
BLOCK_LAYOUTS = {"eta+xi": Params(0.5, 0.25, 0.5), "eta": Params(0.0, 0.25, 0.5),
                 "xi": Params(0.5, 0.0, 0.0), "none": Params(0.0, 0.0, 0.0)}


@pytest.mark.parametrize("layout", list(BLOCK_LAYOUTS))
@pytest.mark.parametrize("modes", [1, 2, 8, 11])
def test_step_matches_forced_reference_bitwise(compiled, monkeypatch, modes, layout):
    space = build_phase_space(dirichlet_eigenvalues(Domain("interval", (np.pi,)), modes),
                              BLOCK_LAYOUTS[layout], grid_size=40)
    fast = MidpointStepper(space, 1e-2)
    with monkeypatch.context() as m:
        m.setattr(ctransport, "kernel", lambda: (ctransport.Reference, "tbtrs: the reference"))
        ref = MidpointStepper(space, 1e-2)
    assert fast._finish is compiled.finish and ref._finish is ctransport.Reference.finish
    rng = np.random.default_rng(modes)
    start = tuple(rng.standard_normal(shape) for shape in
                  ((modes,),) * 3 + ((space.eta_size, modes), (space.xi_size, modes)))
    for own in (False, True):
        # the stepper's own work rows and buffers, or a caller's copies
        s_fast = s_ref = start
        for _ in range(3):
            s_fast, s_ref = fast.step(*s_fast), ref.step(*s_ref)
            assert all(same_bits(a, b) for a, b in zip(s_fast, s_ref))
            if not own:
                s_fast, s_ref = (tuple(a.copy() for a in s) for s in (s_fast, s_ref))


@given(modes=st.integers(1, 300), ne=st.sampled_from([0, 1, 37]),
       nx=st.sampled_from([0, 1, 37]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_finish_matches_the_reference_bitwise(modes, ne, nx, seed):
    # every mode count, not only the self-check's five, on both sides of
    # each loop nest's threshold, with inputs of both signs spanning e-20 to
    # e20: the finish, with the sums of the histories it completes, the sums
    # entry on other histories and the solve with 0, 1 and 2 weight rows
    kernel = ctransport.kernel()[0]
    if kernel is ctransport.Reference:
        pytest.skip(f"compiled kernel unavailable ({ctransport.kernel()[1]})")
    rng = np.random.default_rng(seed)

    def data(shape, order="C"):
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-20, 20, shape)
        return np.asarray(x, order=order)

    g = 10.0 ** rng.uniform(0, 3, modes)
    finish = (modes, ne, nx, float(10.0 ** rng.uniform(-20, 0)), data((modes, 3, 5)), g,
              g * g, data((13, modes)), np.zeros((13, modes)), data(ne), data((ne, modes)),
              data((ne, modes)), data((2, ne)), data(nx), data((nx, modes)),
              data((nx, modes)), data(nx))
    sums = (modes, ne, nx, data((ne, modes)), data((2, ne)), data((nx, modes)), data(nx),
            np.zeros((5, modes)))
    n = max(ne, 1)
    band = np.ones((2, n), order="F")
    band[1] = -rng.uniform(0, 1, n)
    solves = [(n, modes, band, 10.0 ** rng.uniform(-1, 1, n), data((n, modes)),
               np.zeros((n, modes)), nw, data((nw, n)), np.zeros((nw, modes)))
              for nw in (0, 1, 2)]
    for entry, values in [("finish", finish), ("sums", sums)] + [("solve", v) for v in solves]:
        mine = tuple(v.copy(order="K") if isinstance(v, np.ndarray) else v for v in values)
        getattr(ctransport.Reference, entry)(*values)
        getattr(kernel, entry)(*kernel.arguments(*mine))
        assert all(same_bits(v, w) for v, w in zip(values, mine) if isinstance(v, np.ndarray))


def node_loop(terms):
    """The rows of ``terms`` summed one after another from +0."""
    total = np.zeros(terms.shape[1])
    for row in terms:
        total = total + row
    return total


@pytest.mark.parametrize("modes", [1, 8, 11])
def test_reference_sums_and_quadratures_follow_a_plain_loop(modes):
    # the fallback sums by np.add.reduce over the rows of C-order arrays, or
    # accumulates at one mode, where a reduce would sum pairwise; on -0
    # histories every sum reads +0 only from the +0 start
    rng = np.random.default_rng(modes)
    ne, nx = 37, 5
    we, wx = rng.uniform(0.1, 1.0, (2, ne)), rng.uniform(0.1, 1.0, nx)
    band = np.ones((2, ne), order="F")
    band[1] = -rng.uniform(0.0, 1.0, ne)
    for zero in (False, True):
        eta, xi = ((-np.zeros((n, modes)) if zero else rng.standard_normal((n, modes)))
                   for n in (ne, nx))
        s = np.ones((5, modes))
        ctransport.Reference.sums(modes, ne, nx, eta, we, xi, wx, s)
        want = (node_loop((we[0][:, None] * eta) * eta), node_loop((we[1][:, None] * eta) * eta),
                node_loop((wx[:, None] * xi) * xi), node_loop(we[0][:, None] * eta),
                node_loop(wx[:, None] * xi))
        assert all(same_bits(row, w) for row, w in zip(s, want))
        x, q = np.ones((ne, modes)), np.ones((2, modes))
        ctransport.Reference.solve(ne, modes, band, rng.uniform(0.5, 2.0, ne), eta, x, 2, we, q)
        if zero:
            # -0 terms, summed to +0
            assert np.signbit(x).all() and not np.signbit(q).any()
        assert all(same_bits(q[i], node_loop(we[i][:, None] * x)) for i in range(2))


# entry: (index of an array it writes, the status of its first self-check case)
FIRST_CASES = {"solve": (5, "solve differs from tbtrs at 1 x 1, 0 weight rows"),
               "complete": (5, "complete differs from ger at 1 x 1"),
               "finish": (8, "finish differs from the reference at modes = 1, 37 + 5 nodes"),
               "sums": (7, "sums differs from the reference at modes = 1, 37 + 5 nodes")}


@pytest.mark.parametrize("entry", list(FIRST_CASES))
def test_entry_that_rounds_otherwise_falls_back_by_name(compiled, monkeypatch, entry):
    # a LAPACK, BLAS or NumPy that rounds otherwise than the kernel must not
    # pass silently
    reference = getattr(ctransport.Reference, entry)
    written, why = FIRST_CASES[entry]

    def nudged(*args):
        reference(*args)
        out = args[written]
        out.flat[0] = np.nextafter(out.flat[0], np.inf)

    monkeypatch.setattr(ctransport.Reference, entry, nudged)
    backend, status = ctransport.load()
    assert backend is ctransport.Reference
    assert status == f"tbtrs: {why}"


@pytest.mark.parametrize("entry", list(FIRST_CASES))
def test_kernel_that_writes_an_input_fails_the_check(compiled, entry):
    # the self-check compares every array a call leaves behind, its inputs
    # too: here the band, the scaled drive, the map or eta
    first = ctransport.ENTRIES[entry][1].index(ctypes.c_void_p)

    def scribbling(*args):
        getattr(compiled, entry)(*args)
        ctypes.c_double.from_address(args[first].value).value += 1.0

    kernel = SimpleNamespace(arguments=compiled.arguments,
                             **{e: getattr(compiled, e) for e in ctransport.ENTRIES})
    setattr(kernel, entry, scribbling)
    assert ctransport.mismatch(kernel) == FIRST_CASES[entry][1]


def test_every_entry_has_a_reference_and_a_check():
    # a C entry added without a reference of its arity or a self-check case
    # fails here
    exported = set(re.findall(r"^void (\w+)\(", ctransport.SOURCE, re.MULTILINE))
    assert exported == {symbol for symbol, _ in ctransport.ENTRIES.values()}
    for entry, (_, types) in ctransport.ENTRIES.items():
        assert len(inspect.signature(getattr(ctransport.Reference, entry)).parameters) \
            == len(types)
    checked = set()
    for entry, _, values in ctransport.cases():
        assert len(values) == len(ctransport.ENTRIES[entry][1])
        checked.add(entry)
    assert checked == set(ctransport.ENTRIES)


def test_zero_node_stepper_calls_no_backend(monkeypatch):
    # an absent block must not reach tbtrs, where 0 rows corrupt the heap,
    # nor the compiled solve, which reads the first scale
    calls = []

    def recorded(name):
        return lambda *args, **kwargs: calls.append(name) or (None, 0)

    # a backend class, as ctransport.Reference is
    class Recording:
        def arguments(*values):
            return values

        solve, complete, finish = recorded("solve"), recorded("complete"), recorded("finish")

    monkeypatch.setattr(ctransport, "_TBTRS", recorded("tbtrs"))
    monkeypatch.setattr(ctransport, "_GER", recorded("ger"))
    monkeypatch.setattr(ctransport, "kernel", lambda: (Recording, "compiled recording"))
    empty = TransportStepper(None, 1e-3, 4)
    solved = empty.solve(np.zeros((0, 4)))
    completed = empty.complete(empty.partial(np.zeros((0, 4))), np.ones(4))
    assert calls == []
    assert solved.shape == completed.shape == (0, 4)


@pytest.mark.parametrize("layout", list(BLOCK_LAYOUTS))
def test_evolve_sums_once_and_finishes_every_step(monkeypatch, layout):
    # the energy of every stepped state comes from the step's own sums, so
    # the sums entry runs for the initial state alone; a block of 0 nodes is
    # never solved, and with no history nodes at all nothing is summed
    backend, calls = ctransport.kernel()[0], []

    def recorded(entry):
        def call(*args):
            calls.append(entry)
            getattr(backend, entry)(*args)
        return staticmethod(call)

    recording = type("Recording", (), {"arguments": staticmethod(backend.arguments),
                                       **{e: recorded(e) for e in ctransport.ENTRIES}})
    monkeypatch.setattr(ctransport, "kernel", lambda: (recording, "recording"))
    space = build_phase_space(dirichlet_eigenvalues(Domain("interval", (np.pi,)), 3),
                              BLOCK_LAYOUTS[layout], grid_size=40)
    z0 = initial_data_preset("spectral-decay 2", space, 0, with_history=True)
    evolve(space, z0, 1e-2, 0.1)
    blocks = (space.eta_size > 0) + (space.xi_size > 0)
    assert calls.count("sums") == (1 if blocks else 0)
    assert calls.count("finish") == 10
    assert calls.count("solve") == 10 * blocks
    assert len(calls) == calls.count("sums") + 10 + 10 * blocks


def test_second_load_does_not_compile(tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip(NO_CC)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = ctransport.build()
    directory = tmp_path / "memoplate"
    assert first.parent == directory
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    # the temporary build directory is gone, the library is in place
    assert [p.name for p in directory.iterdir()] == [first.name]

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert ctransport.build() == first
    kernel, status = ctransport.load()
    assert status == f"compiled {first.name}" or "differs" in status


@pytest.mark.parametrize("case", ["no compiler", "build error", "cache is a file",
                                  "cache writable by others", "cache of another user"])
def test_unavailable_kernel_falls_back_and_says_why(tmp_path, monkeypatch, case):
    if case != "no compiler" and shutil.which("cc") is None:
        pytest.skip(NO_CC)
    if case == "cache of another user" and os.getuid() != 0:
        pytest.skip("only root can give the cache directory to another user")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if case == "no compiler":
        monkeypatch.setattr(shutil, "which", lambda name: None)
        why = "tbtrs: no C compiler (cc) on PATH"
    elif case == "build error":
        monkeypatch.setattr(ctransport, "SOURCE", "#error not C\n")
        why = "tbtrs: build failed"
    elif case == "cache is a file":
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        why = f"tbtrs: cache directory {blocker / 'memoplate'}: "
    elif case == "cache writable by others":
        (tmp_path / "memoplate").mkdir()
        (tmp_path / "memoplate").chmod(0o777)
        why = f"tbtrs: cache directory {tmp_path / 'memoplate'} is writable by others"
    else:
        (tmp_path / "memoplate").mkdir(mode=0o700)
        os.chown(tmp_path / "memoplate", 4321, -1)
        why = f"tbtrs: cache directory {tmp_path / 'memoplate'} belongs to another user"
    backend, status = ctransport.load()
    assert backend is ctransport.Reference and status.startswith(why), status
    if (tmp_path / "memoplate").is_dir():
        assert not any(p.suffix == ".so" for p in (tmp_path / "memoplate").iterdir())

    # a run without the kernel names the reason in its manifest and steps
    # through the reference
    monkeypatch.setattr(ctransport, "kernel", ctransport.load)
    ini = tmp_path / "run.ini"
    ini.write_text("[domain]\nmodes = 2\n\n[integrator]\nhorizon = 0.05\ngrid_size = 40\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["transport"] == status


def test_compiled_path_is_active():
    # a silent fallback would take the kernel's gain away unseen
    if shutil.which("cc") is None:
        pytest.skip(NO_CC)
    if platform.machine() not in ("aarch64", "arm64") and "fma" not in \
            ctransport.cpu_flags().split():
        pytest.skip("the CPU reports no FMA: fma() would be a libm call, slower than tbtrs")
    kernel, status = ctransport.kernel()
    assert kernel is not ctransport.Reference, status
    assert status == f"compiled {kernel.name}"
    # and so does the triplet half of a step on a space with histories
    space = build_phase_space(dirichlet_eigenvalues(Domain("interval", (np.pi,)), 2),
                              Params(0.5, 0.25, 0.5), grid_size=40)
    assert MidpointStepper(space, 1e-3)._finish is kernel.finish
