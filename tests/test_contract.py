"""The input contract: every public callable returns a result or raises a ModalcsError.

Each leak family closed by the checked helpers in ``modalcs.errors`` has its
reproductions here, run under ``-W error`` semantics (``simplefilter("error")``).
Then a library fuzz over every public callable, a fuzz of ``cli.run`` on
generated sensor files, and user threads calling into the package at once.
"""

import csv
import inspect
import json
import math
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import modalcs
from modalcs import (
    ConfigError,
    DataMatrix,
    DomainError,
    ExperimentConfig,
    InvalidArgument,
    JlMatrix,
    MdofSystem,
    ModalBasis,
    ModalcsError,
    ModeEstimate,
    ResultTable,
    SampleSchedule,
    ShapeError,
    build_basis,
    build_data_matrix,
    build_steering,
    compress,
    draw_jl_matrix,
    emit_plot_data,
    estimate_modes,
    jl_tail_rate,
    load_sensor_csv,
    mode_error_bound,
    preset,
    preset_config,
    random_schedule,
    run_experiment,
    save_sensor_csv,
    uniform_requirements,
    uniform_schedule,
    welch_csd,
    write_result_csv,
)
from modalcs import sampling
from modalcs.cli import run as cli_run
from modalcs.mdof import canonical_sign
from modalcs.results import Panel

_BASIS = ModalBasis(np.eye(2), [2.0, 1.0], [1.0, 0.5])
_DATA = build_data_matrix(_BASIS, uniform_schedule(0.1, 16))
_ESTIMATE = estimate_modes(_DATA)
_PANEL = Panel("p.csv", ("x", "y"), ([1.0, 2.0], [3.0, 4.0]), ("y",), "p")
_TABLE = ResultTable("exp1", ("a",), ((1.0,),), {}, {}, (_PANEL,))


def _raises_under_w_error(error, call, match=None):
    with warnings.catch_warnings(), pytest.raises(error, match=match):
        warnings.simplefilter("error")
        call()


class _SpareFd:
    """An open fd of a scratch file, never 0, 1 or 2, and whether a call left both alone."""

    CONTENT = b"left alone\n"

    def __init__(self, directory):
        self.path = os.path.join(directory, "spare")
        with open(self.path, "wb") as fh:
            fh.write(self.CONTENT)
        self.fd = os.open(self.path, os.O_RDWR)
        self.inode = os.fstat(self.fd).st_ino

    def _open(self) -> bool:  # a call that closed it may have let another file take its number
        try:
            return os.fstat(self.fd).st_ino == self.inode
        except OSError:
            return False

    def intact(self) -> bool:
        with open(self.path, "rb") as fh:
            unchanged = fh.read() == self.CONTENT
        return unchanged and self._open() and os.lseek(self.fd, 0, os.SEEK_CUR) == 0

    def close(self):
        if self._open():
            os.close(self.fd)


@pytest.fixture
def spare_fd(tmp_path):
    spare = _SpareFd(str(tmp_path))
    yield spare
    spare.close()


# Family 1: numpy orders complex values, so the range test passed and float() or int()
# dropped the imaginary part.
@pytest.mark.parametrize("call", [
    lambda: uniform_schedule(np.complex128(0.1 + 1j), 21),
    lambda: jl_tail_rate(np.complex128(0.3 + 2j)),
    lambda: mode_error_bound([1.0, 0.5], np.complex128(0.3 + 5j), 0),
    lambda: mode_error_bound([1.0, 0.5], 0.3, np.complex128(1 + 0j)),
    lambda: random_schedule(2.0, np.complex128(21 + 0j), 3),
    lambda: welch_csd(np.ones((2, 64)), np.complex128(0.1 + 0j)),
], ids=["uniform_t_s", "jl_epsilon", "bound_epsilon", "bound_n", "random_m", "welch_t_s"])
def test_complex_scalars_are_refused(call):
    _raises_under_w_error(DomainError, call)


@pytest.mark.parametrize("call", [
    lambda: uniform_schedule(np.array([0.1]), 21),
    lambda: random_schedule(2.0, np.array([21]), 3),
    lambda: jl_tail_rate(np.array([0.3])),
], ids=["uniform_t_s", "random_m", "jl_epsilon"])
def test_one_element_arrays_are_no_scalars(call):
    # random_schedule took m = [21] as a batch of one count; float() refuses the others.
    _raises_under_w_error(DomainError, call)


# Family 2: choices were checked with `in`, which an array answers elementwise.
@pytest.mark.parametrize("call, error", [
    (lambda: draw_jl_matrix(100, 10, np.array(["gaussian"]), 1), InvalidArgument),
    (lambda: JlMatrix(100, 10, np.array([]), 1), InvalidArgument),
    (lambda: SampleSchedule(np.arange(3.0), np.array([]), 2.0), InvalidArgument),
    (lambda: SampleSchedule(np.arange(3.0), np.array("random"), 2.0), InvalidArgument),
    (lambda: DataMatrix(np.ones((2, 3)), np.array([])), InvalidArgument),
    (lambda: ModeEstimate(_ESTIMATE.mode_shapes_hat, _ESTIMATE.singular_values,
                          _ESTIMATE.right_factors_hat, kind=np.array([])), InvalidArgument),
    (lambda: preset(np.array(["exp1", "exp2"])), ConfigError),
    (lambda: preset(np.array(["exp1"])), ConfigError),
    (lambda: preset_config(np.array(["exp1"])), ConfigError),
], ids=["draw_kind", "jl_kind", "schedule_scheme", "schedule_0d_scheme", "data_kind",
        "estimate_kind", "preset_two", "preset_one", "preset_config_one"])
def test_choices_must_be_strings(call, error):
    _raises_under_w_error(error, call, "^(unknown|experiment: expected one of)")


# Family 3: random_schedule broadcast a sequence t_max or m inside _random_times.
@pytest.mark.parametrize("t_max, m", [([2.0, 3.0], 21), (np.array([]), 21), (2.0, [21, 22])])
def test_random_schedule_takes_scalars_only(t_max, m):
    _raises_under_w_error(DomainError, lambda: random_schedule(t_max, m, 3))


@pytest.mark.parametrize("m_values", [[4], [4, 100_000]])
def test_an_exp3_t_max_that_rounds_to_zero_fails_before_any_draw(m_values):
    # round((m - 1) * t_s, 10) is 0.0 here; every row then collided 64 times, drawing up to
    # 64 M values each, before an InvalidArgument.
    raw = preset("exp3")
    raw["sampling"] = {**raw["sampling"], "t_s": 1e-12, "m_values": m_values}
    _raises_under_w_error(DomainError, lambda: run_experiment(ExperimentConfig(**raw)),
                          "^t_max must be finite and > 0, got np.float64\\(0.0\\)$")


@pytest.mark.parametrize("t_max", [[2.0, 0.0], [2.0, np.inf], [np.nan, 2.0]])
def test_every_row_t_max_of_a_batch_is_checked(t_max):
    _raises_under_w_error(DomainError, lambda: sampling._random_times(np.array(t_max), 8, [1, 2]),
                          "^t_max must be finite and > 0")


# Family 4: open() took an int as a file descriptor, and other objects leaked its errors.
_PATH_CALLS = {
    "write_result_csv": lambda path: write_result_csv(_TABLE, path),
    "save_sensor_csv": lambda path: save_sensor_csv(np.ones((2, 3)), path),
    "emit_plot_data": lambda path: emit_plot_data(_TABLE, path),
    "load_sensor_csv": load_sensor_csv,
}


@pytest.mark.parametrize("name", sorted(_PATH_CALLS))
def test_an_fd_is_no_path(name, spare_fd):
    # write_result_csv(table, 1) wrote into stdout and closed it; load_sensor_csv(0) read stdin.
    _raises_under_w_error(InvalidArgument, lambda: _PATH_CALLS[name](spare_fd.fd),
                          "^(path|out_dir) ")
    assert spare_fd.intact()


@pytest.mark.parametrize("name", sorted(_PATH_CALLS))
@pytest.mark.parametrize("path", [-1, 1.5, None, np.array(["x.csv"]), b"x.csv"],
                         ids=["minus_one", "float", "none", "array", "bytes"])
def test_paths_must_be_str_or_pathlike(tmp_path, monkeypatch, name, path):
    monkeypatch.chdir(tmp_path)
    _raises_under_w_error(InvalidArgument, lambda: _PATH_CALLS[name](path), "^(path|out_dir) ")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("name", sorted(_PATH_CALLS))
def test_a_nul_in_a_path_is_an_io_error(name):
    _raises_under_w_error(ModalcsError, lambda: _PATH_CALLS[name]("x\0.csv"), "^cannot ")


def test_pathlike_paths_still_work(tmp_path):
    save_sensor_csv(np.ones((2, 3)), tmp_path / "s.csv")
    assert load_sensor_csv(tmp_path / "s.csv").shape == (2, 3)
    write_result_csv(_TABLE, tmp_path / "t.csv")
    manifest = emit_plot_data(_TABLE, tmp_path / "plots")[0]
    assert manifest == os.path.join(tmp_path / "plots", "manifest.json")


# Family 5: containers and types that nothing checked.
@pytest.mark.parametrize("call, error", [
    (lambda: ModeEstimate(_ESTIMATE.mode_shapes_hat, _ESTIMATE.singular_values, 0), ShapeError),
    (lambda: ResultTable("x", ("a",), 5, {}), InvalidArgument),
    (lambda: build_basis(None), InvalidArgument),
    (lambda: ExperimentConfig(["exp1"], 1), ConfigError),
    (lambda: run_experiment(ExperimentConfig("exp7", 1)), ConfigError),
], ids=["estimate_0d_vh", "table_int_rows", "basis_none", "config_list_experiment",
        "config_unknown_experiment"])
def test_unchecked_containers_are_refused(call, error):
    _raises_under_w_error(error, call)


# Family 6: a sizing value overflowed.
def test_an_infinite_m_bound_is_a_domain_error():
    # math.ceil(inf) leaked OverflowError.
    _raises_under_w_error(DomainError, lambda: uniform_requirements(4, 1.0, 1e308, 0.3),
                          "^the M bound must be finite")


def test_a_huge_uniform_t_s_fails_without_an_overflow_warning():
    # (m - 1) * t_s overflowed with a RuntimeWarning before the InvalidArgument.
    _raises_under_w_error(InvalidArgument,
                          lambda: SampleSchedule(np.arange(5.0), "uniform", 4.0, 1e308),
                          "^uniform times must equal")


# ExperimentConfig checks itself, as from_dict does.
def test_direct_config_is_the_from_dict_config():
    for name in modalcs.EXPERIMENTS:
        raw = preset(name)
        if name == "realdata":
            raw.update(data_path="sensors.csv", sampling={"t_s": 0.01, "m_prime": 50})
        direct = ExperimentConfig(**raw)
        assert direct == ExperimentConfig.from_dict(raw)
        assert direct.as_dict() == ExperimentConfig.from_dict(raw).as_dict()
        if direct.frequencies is not None:
            assert type(direct.frequencies) is tuple
            assert {type(v) for v in direct.frequencies + direct.magnitudes} == {float}


@pytest.mark.parametrize("change, match", [
    ({"seed": -1}, "^seed: expected >= 0"),
    ({"seed": None}, "^seed: expected integer"),
    ({"frequencies": None}, "^exp1: field 'frequencies' is required"),
    ({"sampling": {"t_s": 0.1}}, "^exp1: sampling.t_max_step is required"),
    ({"header": 1}, "^header: expected boolean"),
    ({"system": np.eye(4)}, "^system: .* expected object, got ndarray$"),
])
def test_direct_config_refuses_what_from_dict_refuses(change, match):
    raw = {**preset("exp1"), **change}
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(**raw)


# load_sensor_csv's header must be a bool: its two readers skipped different row counts.
@pytest.mark.parametrize("quoted", [False, True], ids=["numpy_reader", "csv_reader"])
@pytest.mark.parametrize("header", [2, 0.5, 1, np.True_, "yes", None])
def test_header_must_be_a_bool(tmp_path, quoted, header):
    path = tmp_path / "s.csv"
    cell = '"1.5"' if quoted else "1.5"
    path.write_text("\r\n".join([",".join([cell] * 3)] * 3) + "\r\n")
    for flag, rows in ((False, 3), (True, 2)):
        assert load_sensor_csv(str(path), header=flag).shape == (rows, 3)
    _raises_under_w_error(InvalidArgument, lambda: load_sensor_csv(str(path), header=header),
                          "^header must be a bool")


# ---- Library fuzz ------------------------------------------------------------------------

def _public_callables():
    """Every callable in modalcs.__all__ but the exception classes, and canonical_sign."""
    objects = {name: getattr(modalcs, name) for name in modalcs.__all__}
    callables = {name: obj for name, obj in objects.items() if callable(obj)
                 and not (isinstance(obj, type) and issubclass(obj, BaseException))}
    return {**callables, "canonical_sign": canonical_sign}


_CALLABLES = _public_callables()


def _valid_calls(directory):
    """Callable name -> keyword arguments of one valid call, its paths under directory."""
    phi = draw_jl_matrix(16, 8, seed=0)
    cube = welch_csd(np.sin(np.arange(128.0)).reshape(2, 64), 0.1)
    sensors = os.path.join(directory, "sensors.csv")
    save_sensor_csv(np.arange(6.0).reshape(2, 3), sensors)
    system = dict(mass=np.eye(2), stiffness=[[2.0, -1.0], [-1.0, 2.0]])
    estimate = dict(mode_shapes_hat=_ESTIMATE.mode_shapes_hat, schedule=_ESTIMATE.schedule,
                    singular_values=_ESTIMATE.singular_values, kind="raw",
                    right_factors_hat=_ESTIMATE.right_factors_hat)
    return {
        "CsdCube": dict(frequencies=cube.frequencies, spectra=cube.spectra),
        "DataMatrix": dict(entries=_DATA.entries, kind="raw", schedule=_DATA.schedule),
        "ExperimentConfig": preset("exp1"),
        "JlMatrix": dict(m=16, m_prime=8, kind="gaussian", seed=0),
        "MdofSystem": system,
        "ModalBasis": dict(mode_shapes=np.eye(2), frequencies=[2.0, 1.0], amplitudes=[1.0, 0.5]),
        "ModeEstimate": estimate,
        "ResultTable": dict(experiment="exp1", columns=("a",), rows=((1.0,),), config={},
                            axes={}, panels=(_PANEL,)),
        "SampleSchedule": dict(times=[0.0, 0.1, 0.2], scheme="uniform", t_max=0.2, t_s=0.1),
        "SparseRecovery": dict(coefficients=np.zeros(2), signal=np.zeros(2), l1_history=()),
        "align_and_error": dict(estimate=_ESTIMATE, truth=_BASIS),
        "build_basis": dict(cfg=preset_config("exp1")),
        "build_data_matrix": dict(basis=_BASIS, schedule=_DATA.schedule),
        "build_steering": dict(frequencies=[2.0, 1.0], schedule=_DATA.schedule),
        "canonical_sign": dict(matrix=np.eye(2)),
        "compress": dict(data=_DATA, phi=phi),
        "draw_jl_matrix": dict(m=16, m_prime=8, kind="gaussian", seed=0),
        "emit_plot_data": dict(table=_TABLE, out_dir=os.path.join(directory, "plots")),
        "estimate_modes": dict(data=_DATA),
        "fdd_peaks": dict(cube=cube, n_modes=1),
        "frequency_spectra": dict(estimate=_ESTIMATE, zero_pad_factor=2),
        "gershgorin_uniform_bound": dict(frequencies=[1.0, 2.0], t_s=0.1, m=16),
        "gram_deviation": dict(steering=build_steering([2.0, 1.0], _DATA.schedule)),
        "jl_tail_rate": dict(epsilon=0.3),
        "load_sensor_csv": dict(path=sensors, header=False),
        "mode_error_bound": dict(magnitudes=[1.0, 0.5], epsilon=0.3, n=0),
        "preset": dict(name="exp1"),
        "preset_config": dict(name="exp1"),
        "random_requirements": dict(n=4, delta_min=0.5, epsilon=0.3, tau=0.1),
        "random_schedule": dict(t_max=2.0, m=21, seed=3),
        "run_experiment": dict(config=preset_config("exp5")),
        "save_sensor_csv": dict(matrix=np.ones((2, 3)), path=os.path.join(directory, "out.csv"),
                                header=None),
        "solve_modes": dict(system=MdofSystem(**system)),
        "sparse_reconstruct": dict(measurements=np.ones(8), phi=phi),
        "uniform_requirements": dict(n=4, delta_min=0.5, delta_max=1.0, epsilon=0.3),
        "uniform_schedule": dict(t_s=0.1, m=21),
        "welch_csd": dict(samples=np.ones((2, 64)), t_s=0.1),
        "write_result_csv": dict(table=_TABLE, path=os.path.join(directory, "table.csv")),
    }


_FD = object()  # stands for the spare fd, which only exists while the fuzz runs
# Hostile values: non-finite, empty, 0-d and complex arrays and scalars; the wrong ndim;
# negative or huge seeds and counts; bool, object and str values; arrays where a string or a
# package object goes; and Panels with ragged or non-sequence columns.
_HOSTILE = [
    math.nan, math.inf, -math.inf, -1, 0, 1.5, 10**30, 2**64, 10**5000, -(2**63),
    True, np.True_, None, object(), "", "a", "x\0y", b"x.csv", (), [], {}, [2.0, 3.0], {"a": 1},
    1 + 1j, np.complex128(0.3 + 2j), np.float64(math.nan), np.float32(0.5), np.int8(-3),
    np.array(0.5), np.array([0.5]), np.array([]), np.array([[math.nan]]), np.array([1 + 1j]),
    np.ones((2, 3)), np.ones((2, 2, 2)), np.array("gaussian"), np.array(["gaussian"]),
    np.array(["exp1", "exp2"]), np.array([None]),
    (Panel("r.csv", ("x", "y"), ([1.0], [1.0, 2.0]), ("y",), "ragged"),),
    (Panel("s.csv", ("x",), (5,), ("x",), "scalar column"),),
]
# Paths that are no str or os.PathLike: a spare fd, -1, a huge int, a float, None, bytes, and
# a NUL.  No 0, 1, 2 or True, which open() takes for the standard streams.
_PATH_KEYS = ("path", "out_dir")
_HOSTILE_PATHS = [_FD, -1, 10**30, 1.5, None, b"x.csv", "", "x\0y", object(),
                  np.array(["x.csv"]), np.ones((2, 3))]
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
                     hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
_CASES = [(name, key) for name in sorted(_CALLABLES)
          for key in inspect.signature(_CALLABLES[name]).parameters]
# gershgorin_uniform_bound's documented warning, for T_s past pi / delta_max.
_DOCUMENTED_WARNING = "T_s exceeds pi/delta_max"


@pytest.fixture(scope="module")
def fuzz_env():
    """The valid calls and a spare fd, in a scratch working directory that paths land in."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        spare = _SpareFd(directory)
        try:
            yield _valid_calls(directory), spare
        finally:
            spare.close()
            os.chdir(cwd)


def _leak(name, kwargs, spare):
    """None if calling name(**kwargs) returned finite values or raised a ModalcsError with
    the spare fd intact, else what went wrong."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", _DOCUMENTED_WARNING, UserWarning)
            result = _CALLABLES[name](**kwargs)
    except ModalcsError:
        result = None
    except Exception as exc:  # the leak under test
        return f"{type(exc).__name__}: {exc}"[:200]
    if not spare.intact():
        return "touched the spare fd"
    for value in result if isinstance(result, tuple) else (result,):
        numeric = isinstance(value, float) or getattr(value, "dtype", None) in (float, complex)
        if numeric and not np.isfinite(value).all():
            return f"returned a non-finite {type(value).__name__}"
    return None


def test_every_fixed_hostile_value_in_every_argument(fuzz_env):
    # The exhaustive sweep of the fixed values; the Hypothesis test below adds random arrays.
    valid, spare = fuzz_env
    assert set(valid) == set(_CALLABLES)
    leaks = []
    for name, kwargs in valid.items():
        params = inspect.signature(_CALLABLES[name]).parameters
        assert set(kwargs) <= set(params), name
        assert {key for key, p in params.items() if p.default is p.empty} <= set(kwargs), name
        if name != "run_experiment":  # a whole preset; its config's substitutes fail fast
            assert _leak(name, kwargs, spare) is None, name
    for name, key in _CASES:
        for value in _HOSTILE_PATHS if key in _PATH_KEYS else _HOSTILE:
            kwargs = {**valid[name], key: spare.fd if value is _FD else value}
            if (leak := _leak(name, kwargs, spare)) is not None:
                leaks.append((name, key, type(value).__name__, leak))
    assert not leaks


@st.composite
def hostile_calls(draw):
    """(callable name, its keyword arguments but one, the argument's name, a hostile value)."""
    name, key = draw(st.sampled_from(_CASES))
    if key in _PATH_KEYS:
        return name, key, draw(st.sampled_from(_HOSTILE_PATHS))
    return name, key, draw(st.sampled_from(_HOSTILE) | _ARRAYS)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(call=hostile_calls())
def test_hostile_arguments_end_in_a_result_or_a_modalcs_error(fuzz_env, call):
    (valid, spare), (name, key, value) = fuzz_env, call
    kwargs = {**valid[name], key: spare.fd if value is _FD else value}
    assert _leak(name, kwargs, spare) is None


# ---- cli.run fuzz ------------------------------------------------------------------------

@st.composite
def sensor_runs(draw):
    """A sensor matrix with constant, duplicated and extreme rows, and a realdata overlay."""
    n, m = draw(st.integers(1, 20)), draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** np.array(draw(st.lists(st.sampled_from([-300, -150, 0, 150, 300]),
                                            min_size=n, max_size=n)))
    samples = rng.standard_normal((n, m)) * scales[:, None]
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        samples[row] = draw(st.sampled_from([0.0, 1.0, -1e300]))
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        samples[row] = samples[0]
    overlay = {"sampling": {"t_s": draw(st.sampled_from([1e-6, 0.01, 1.0, 1e6])),
                            "m_prime": draw(st.integers(n, max(n, m)) | st.integers(1, 520))},
               "n_benchmark_modes": draw(st.integers(1, 4))}
    return samples, overlay


def _csv_numbers(path):
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    yield float(cell)
                except ValueError:  # a header or scheme name
                    pass


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(run=sensor_runs())
def test_cli_realdata_runs_exit_cleanly_with_finite_tables(run):
    samples, overlay = run
    with tempfile.TemporaryDirectory() as directory:
        save_sensor_csv(samples, os.path.join(directory, "s.csv"))
        config = os.path.join(directory, "c.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({**overlay, "data_path": os.path.join(directory, "s.csv")}, fh)
        out = os.path.join(directory, "out")
        code = cli_run(["run", "--experiment", "realdata", "--config", config, "--out", out])
        assert code in (0, 2, 3, 4)
        if code == 0:
            results = os.path.join(out, "realdata_results.csv")
            with open(results, encoding="utf-8") as fh:
                assert len(fh.read().splitlines()) > 1  # a header and at least one row
            tables = [os.path.join(out, name) for name in os.listdir(out) if name.endswith(".csv")]
            assert all(math.isfinite(x) for path in tables for x in _csv_numbers(path))
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                json.load(fh, parse_constant=pytest.fail)  # NaN or Infinity in the config echo


# ---- Embedding ---------------------------------------------------------------------------

def test_user_threads_get_the_bytes_of_serial_calls():
    # exp4 at M 10,001 and M' 64 draws each seed's Phi in five row blocks inside a fan-out
    # share; the 10,000-sample compress splits its five blocks over the CPUs it may use.
    raw = preset("exp4")
    raw["sampling"].update(t_s_super=0.0002, m_prime=64)
    config = ExperimentConfig(**{**raw, "n_phi_seeds": 2})
    data = build_data_matrix(_BASIS, uniform_schedule(1e-3, 10_000))
    phi = draw_jl_matrix(10_000, 64, "gaussian", seed=21)
    jobs = [lambda: (lambda t: (t.to_csv(), repr(t.panels)))(run_experiment(config)),
            lambda: compress(data, phi).entries.tobytes()]
    want = [job() for job in jobs]
    got, errors = [None] * 4, []

    def user(i):
        try:
            got[i] = jobs[i % 2]()
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=user, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert got == want * 2
    assert not sampling._HELPERS
