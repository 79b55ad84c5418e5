import math
import re
import tempfile
from collections import namedtuple
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2pbackup import report as rep
from p2pbackup import sim as psim
from p2pbackup import trace
from p2pbackup import redundancy as red
from p2pbackup.redundancy import loss_risk
from p2pbackup.sim import SERVER, SimConfig, Simulation
import differential
from conftest import allocate_rows, allocation_digest, link_loads, make_matrix, recorded_allocations, tool_output
from oracles import holder_rule, loop_ideal_seconds, maxmin_violations, two_class_reference

KB100 = 100_000.0  # flat-CDF uplink, bytes/s
SLOT = 3600.0
UP_SLOT = KB100 * SLOT  # 3.6e8 bytes through one uplink per slot


def cfg(flat_cdf_file, **overrides):
    """A small, fully controlled baseline: k=4, one-slot object, no crashes."""
    base = dict(
        object_size=int(UP_SLOT),
        fragment_size=int(UP_SLOT) // 4,
        storage_quota=10 * int(UP_SLOT),
        mean_lifetime_days=0.0,
        redundancy_policy="fixed",
        bandwidth_source="file",
        bandwidth_file=flat_cdf_file,
        seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


# -------------------------------------------------------------------- config

def test_config_from_mapping_coerces_strings():
    config = SimConfig.from_mapping(
        {
            "object_size": "2048",
            "fragment_size": "1024",
            "mean_lifetime_days": "60",
            "redundancy_policy": "fixed",
        }
    )
    assert config.object_size == 2048
    assert config.fragment_size == 1024
    assert config.mean_lifetime_days == 60.0
    assert isinstance(config.mean_lifetime_days, float)
    assert config.redundancy_policy == "fixed"


def test_config_from_mapping_rejects_non_integral_ints():
    for key, text in (("backup_parallelism", "2.5"), ("seed", "7.9"), ("storage_quota", "1e-3")):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got '{text}'"):
            SimConfig.from_mapping({key: text})
    # integral spellings are taken, and a long one keeps every digit
    config = SimConfig.from_mapping({"storage_quota": "1e10", "backup_parallelism": "3.0", "seed": "9007199254740993"})
    assert (config.storage_quota, config.backup_parallelism, config.seed) == (10**10, 3, 2**53 + 1)


def test_config_rejects_non_integral_native_ints():
    for key, value in (("backup_parallelism", 2.5), ("seed", 7.9), ("storage_quota", np.float64(1e-3))):
        for build in (lambda: SimConfig(**{key: value}), lambda: SimConfig.from_mapping({key: value})):
            with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
                build()
    # integral values are stored as int, so the manifest writes 10000000000, not 10000000000.0
    config = SimConfig(storage_quota=1e10, backup_parallelism=np.int64(3), seed=np.float64(9))
    assert [type(v) for v in (config.storage_quota, config.backup_parallelism, config.seed)] == [int] * 3
    assert config.to_mapping()["storage_quota"] == 10**10 and config == SimConfig.from_mapping(config.to_mapping())


def test_config_from_mapping_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        SimConfig.from_mapping({"object_sise": "1000"})


def test_config_mapping_round_trip():
    config = SimConfig(object_size=4096, fragment_size=1024, seed=7)
    assert SimConfig.from_mapping(config.to_mapping()) == config


def test_config_defaults_follow_reference_deployment():
    config = SimConfig()
    assert config.k == 64  # 10 GiB in 160 MiB fragments
    assert config.mean_lifetime_days == 90.0
    assert config.redundancy_policy == "adaptive"


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(object_size=1000, fragment_size=300)  # not a multiple
    with pytest.raises(ValueError):
        SimConfig(redundancy_policy="hybrid")
    with pytest.raises(ValueError):
        SimConfig(response="psychic")
    for field, bad in (("storage_quota", -5), ("bandwidth_median_kbs", 0.0), ("bandwidth_median_kbs", math.nan),
                       ("bandwidth_sigma", -1.0), ("bandwidth_sigma", math.nan)):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SimConfig(**{field: bad})
    # a nan passes any bound check, so each float field rejects it by name,
    # and inf too, except where it means "never"
    for f in fields(SimConfig):
        if f.type == "float":
            with pytest.raises(ValueError, match=f"^{f.name} must be finite, got nan"):
                SimConfig(**{f.name: math.nan})
    for field in ("w_days", "ttr_factor", "delay_mean_days", "repair_timeout_days", "storage_quota"):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf"):
            SimConfig(**{field: math.inf})
    for text in ("inf", "nan", "-inf"):
        with pytest.raises(ValueError, match="^storage_quota must be finite"):
            SimConfig.from_mapping({"storage_quota": text})
    # the bounds themselves are allowed: no quota, one bandwidth for all, no
    # crashes and no TTR rule
    assert SimConfig(storage_quota=0, bandwidth_sigma=0.0).storage_quota == 0
    never = SimConfig.from_mapping({"mean_lifetime_days": "inf", "ttr_floor_days": "inf"})
    assert never.mean_lifetime_days == never.ttr_floor_days == math.inf


@pytest.mark.parametrize("overrides, message", [
    ({"object_size": 0}, "object_size and fragment_size must be positive"),
    ({"fragment_size": -1024}, "object_size and fragment_size must be positive"),
    ({"delay_mean_days": 0.0}, "delay_mean_days must be positive"),
    ({"repair_timeout_days": -1.0}, "repair_timeout_days must be positive"),
    ({"mean_lifetime_days": -1.0}, "mean_lifetime_days must be non-negative"),
    ({"bandwidth_source": "uniform"}, "bandwidth_source must be lognormal or file"),
    ({"bandwidth_source": "file"}, "bandwidth_source=file requires bandwidth_file"),
    ({"backup_parallelism": 0}, "backup_parallelism must be at least 1"),
    ({"backup_parallelism": 2**63}, f"backup_parallelism must fit in int64, got {2**63}"),
    ({"parallel_downloads": 10**20}, f"parallel_downloads must fit in int64, got {10**20}"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"parallel_downloads": -1}, "parallel_downloads must be non-negative"),
    ({"fixed_target": 1e308}, "fixed_target must be in (0, 1)"),
    ({"fixed_target": 0.0}, "fixed_target must be in (0, 1)"),
])
def test_config_rejects_each_bad_field(overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        SimConfig(**overrides)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# deployment\nobject_size = 2048\nfragment_size=1024\n\nseed=3\n")
    pairs = psim.load_config(path)
    assert pairs == {"object_size": "2048", "fragment_size": "1024", "seed": "3"}
    config = SimConfig.from_mapping(pairs)
    assert (config.object_size, config.seed) == (2048, 3)


def test_load_config_rejects_bare_words(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("object_size\n")
    with pytest.raises(ValueError, match="key=value"):
        psim.load_config(path)


def test_load_config_rejects_a_duplicate_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=3\n# later\nobject_size=2048\n seed = 4\n")
    with pytest.raises(ValueError, match=r"run\.cfg: line 4: duplicate key 'seed', first on line 1$"):
        psim.load_config(path)


# every field but bandwidth_file, whose missing file is an OSError by design
_FIELDS = [f.name for f in fields(SimConfig)]
_SWEPT_FIELDS = [name for name in _FIELDS if name != "bandwidth_file"]
_SWEPT_VALUES = ["0", "1", "2", "0.5", "-1", "1e-300", "1e20", "-1e20", "1e308", "-1e308", str(2**63 - 1),
                 str(2**63), "nan", "inf", "-inf", "", "abc", "fixed", "delayed", "delayed_assisted", "file"]
# a k = 2 object and crashes within the 8 slots, so that restores and repairs run
_SWEPT_BASE = {"object_size": "2000000", "fragment_size": "1000000", "mean_lifetime_days": "0.2"}
_SWEPT_MATRIX = make_matrix(["11011011", "10110111", "01111101", "11101110"])


@st.composite
def config_lines(draw):
    """Lines of a config file: up to five fields, each set to its default,
    a bound, a huge, negative or non-finite number, or junk text, then up
    to two edits: a comment, a blank line, a bare word, an unknown key or a
    key set twice."""
    lines = []
    for key in draw(st.lists(st.sampled_from(_SWEPT_FIELDS), unique=True, max_size=5)):
        default = str(getattr(SimConfig(), key))
        value = draw(st.one_of(st.sampled_from([default, *_SWEPT_VALUES]), st.text("0123456789.e+-_x ", max_size=6)))
        lines.append(f"{key} = {value}")
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(["# note", "", "seed", "object_sise = 1", *lines[:1]]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines


def test_config_file_runs_or_names_what_it_rejects(tmp_path):
    """Any config text, over a base that crashes and restores on a 4 x 8
    trace, either runs with finite uplinks or raises a ValueError before the
    run starts; one that load_config rejects names its line, and any other
    opens with the name of the SimConfig field it rejects (the sweep's one
    unknown key aside).  No other exception escapes, and the sweep must see
    a run, a line error and a rejected value."""
    seen = set()
    path = tmp_path / "run.cfg"

    @settings(max_examples=300, deadline=None)
    @given(config_lines())
    @example(["backup_parallelism = 1e20"])
    @example(["parallel_downloads = 1e20"])
    @example(["bandwidth_median_kbs = 1e308"])
    @example(["bandwidth_median_kbs = 5e304", "bandwidth_sigma = 0"])
    @example(["redundancy_policy = fixed", "object_size = 1e20"])  # k = 1e14 passes the search's ceiling
    def check(lines):
        set_keys = {line.split("=", 1)[0].strip() for line in lines}
        base = [f"{key} = {value}" for key, value in _SWEPT_BASE.items() if key not in set_keys]
        text = "".join(f"{line}\n" for line in base + lines)
        path.write_text(text)
        try:
            pairs = psim.load_config(path)
        except ValueError as exc:
            line = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
            assert line and 1 <= int(line[1]) <= len(text.splitlines()), str(exc)
            seen.add("line error")
            return
        try:
            simulation = Simulation(SimConfig.from_mapping(pairs), _SWEPT_MATRIX)
        except ValueError as exc:
            assert re.match(r"\w+", str(exc))[0] in _FIELDS or str(exc) == "unknown config key 'object_sise'", str(exc)
            seen.add("value error")
            return
        report = simulation.run()  # what the constructor accepts runs to the end
        assert all(math.isfinite(p.uplink) and p.uplink > 0 for p in report.peers), report.peers
        seen.add("ran")

    check()
    assert seen == {"ran", "line error", "value error"}


# ------------------------------------------------------------------ sampling

def test_lifetime_disabled_modes():
    rng = np.random.default_rng(0)
    assert psim.sample_lifetime(0.0, rng) == math.inf
    assert psim.sample_lifetime(math.inf, rng) == math.inf


def test_lifetime_matches_exponential_statistics():
    rng = np.random.default_rng(11)
    days = np.array([psim.sample_lifetime(90.0, rng) for _ in range(100_000)]) / 86400.0
    assert abs(days.mean() - 90.0) / 90.0 < 0.02
    below_median = float((days <= 90.0 * math.log(2)).mean())
    assert abs(below_median - 0.5) < 0.01


def test_bandwidth_lognormal_statistics():
    config = SimConfig()
    rng = np.random.default_rng(5)
    up, down = psim.sample_bandwidth(config, 100_000, rng)
    assert np.allclose(down, 4.0 * up)
    median = float(np.median(up))
    assert abs(median - 77_000.0) / 77_000.0 < 0.10
    analytic_mean = 77_000.0 * math.exp(1.852**2 / 2)
    assert abs(up.mean() - analytic_mean) / analytic_mean < 0.15


@pytest.mark.parametrize("median, sigma", [(1e308, 1.852), (77.0, 1e308)])
def test_bandwidth_rejects_an_uplink_draw_that_overflows(median, sigma):
    """An infinite uplink would turn into a NaN further on."""
    config = SimConfig(bandwidth_median_kbs=median, bandwidth_sigma=sigma)
    message = f"bandwidth_median_kbs = {median} and bandwidth_sigma = {sigma} draw an uplink too large for a float"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        psim.sample_bandwidth(config, 100, np.random.default_rng(0))


@pytest.mark.parametrize("median", [4e304, 5e304])  # the slot budget overflows; at 5e304 the downlink too
def test_a_slot_budget_too_large_for_a_float_names_the_median(median):
    config = SimConfig(bandwidth_median_kbs=median, bandwidth_sigma=0.0)
    message = f"bandwidth_median_kbs = {median} draws a downlink whose budget over a 3600-second slot is too large"
    with pytest.raises(ValueError, match=f"^{re.escape(message)} for a float$"):
        Simulation(config, make_matrix(["11", "11"]))


def test_a_slot_budget_too_large_for_a_float_names_the_file(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("0.0,1e5\n1.0,1e308\n")
    config = SimConfig(bandwidth_source="file", bandwidth_file=str(path))
    with pytest.raises(ValueError, match=f"^bandwidth_file = {re.escape(str(path))} draws a downlink whose budget"):
        Simulation(config, make_matrix(["11"] * 4))


def test_bandwidth_degenerate_cdf(flat_cdf_file):
    config = SimConfig(bandwidth_source="file", bandwidth_file=flat_cdf_file)
    up, down = psim.sample_bandwidth(config, 50, np.random.default_rng(0))
    assert np.all(up == KB100)
    assert np.all(down == 4 * KB100)


def test_bandwidth_file_mode_tracks_table(spread_cdf_file):
    config = SimConfig(bandwidth_source="file", bandwidth_file=spread_cdf_file)
    up, _ = psim.sample_bandwidth(config, 100_000, np.random.default_rng(9))
    assert up.min() >= 30_000.0 and up.max() <= 250_000.0  # clamped at table ends
    median = float(np.median(up))
    assert abs(median - 77_000.0) / 77_000.0 < 0.10


def test_bandwidth_deterministic_under_seed(spread_cdf_file):
    config = SimConfig(bandwidth_source="file", bandwidth_file=spread_cdf_file)
    a, _ = psim.sample_bandwidth(config, 64, np.random.default_rng(4))
    b, _ = psim.sample_bandwidth(config, 64, np.random.default_rng(4))
    assert np.array_equal(a, b)


def test_bandwidth_cdf_rejects_bad_tables(tmp_path):
    bad_order = tmp_path / "a.csv"
    bad_order.write_text("0.5,100\n0.25,50\n")
    with pytest.raises(ValueError):
        psim.read_bandwidth_cdf(bad_order)
    bad_range = tmp_path / "b.csv"
    bad_range.write_text("0.5,100\n1.5,200\n")
    with pytest.raises(ValueError):
        psim.read_bandwidth_cdf(bad_range)
    bad_row = tmp_path / "c.csv"
    bad_row.write_text("0.5;100\n")
    with pytest.raises(ValueError):
        psim.read_bandwidth_cdf(bad_row)
    # a nan would slip past the order check and reach the byte budgets, and a
    # negative uplink would be clamped silently
    for row in ("nan,100", "0.75,nan", "0.75,inf", "inf,100", "0.75,-5"):
        path = tmp_path / "e.csv"
        path.write_text(f"0.5,100\n{row}\n")
        with pytest.raises(ValueError, match=f"e.csv: line 2: CDF row '{row}'"):
            psim.read_bandwidth_cdf(path)
    path.write_text("0,0\n1,100\n")  # a zero uplink stays legal
    assert psim.read_bandwidth_cdf(path)[1].tolist() == [0.0, 100.0]


def test_bandwidth_cdf_rejects_a_falling_uplink(tmp_path):
    """An uplink that falls as the quantile rises makes np.interp's inverse
    CDF non-monotone; equal uplinks, a flat stretch, still read."""
    path = tmp_path / "f.csv"
    path.write_text("quantile,uplink\n0.2,100\n0.9,50\n")
    with pytest.raises(ValueError, match="f.csv: line 3: CDF row '0.9,50': the uplink falls below the previous row's"):
        psim.read_bandwidth_cdf(path)
    path.write_text("0.2,100\n0.5,100\n0.9,150\n")
    assert psim.read_bandwidth_cdf(path)[1].tolist() == [100.0, 100.0, 150.0]


_CDF_JUNK = ["nan", "inf", "-inf", "-5", "1.5", "abc", "", "1e400", " 0.5 ", "0x1p-2"]
_CDF_LINES = ["quantile,uplink", "# comment", "", "   ", "0.5;100", "1,2,3", "0.5,"]
_CDF_CHARS = st.characters(blacklist_categories=["Cc", "Cs", "Zl", "Zp"])  # no line breaks


@st.composite
def cdf_texts(draw):
    """A table with rising quantiles and uplinks, then up to three edits: a
    junk token, two rows swapped, an uplink lowered below its predecessor's,
    or an extra line (header, comment, blank, malformed or random text)."""
    count = draw(st.integers(0, 6))
    qs = sorted(draw(st.lists(st.floats(0, 1), min_size=count, max_size=count, unique=True)))
    vs = sorted(draw(st.lists(st.floats(0, 1e9), min_size=count, max_size=count)))
    rows = [[repr(q), repr(v)] for q, v in zip(qs, vs)]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["junk", "swap", "lower", "line"]))
        if edit == "line" or not rows:
            text = draw(st.one_of(st.sampled_from(_CDF_LINES), st.text(_CDF_CHARS, max_size=12)))
            rows.insert(draw(st.integers(0, len(rows))), [text])
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if edit == "junk" and len(rows[i]) == 2:
            rows[i][draw(st.integers(0, 1))] = draw(st.sampled_from(_CDF_JUNK))
        elif edit == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif edit == "lower" and i and len(rows[i]) == len(rows[i - 1]) == 2:
            try:
                rows[i][1] = repr(float(rows[i - 1][1]) - draw(st.floats(1e-3, 1e3)))
            except ValueError:
                pass
    return "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["\n", ""]))


def test_bandwidth_cdf_parses_or_names_the_line(tmp_path):
    """Any text either reads as an inverse CDF, quantiles strictly
    increasing within [0, 1] and uplinks finite, non-negative and
    non-decreasing, or raises a ValueError that names a line of the file;
    an empty table is the one error without a line.  No other exception
    escapes, and the sweep must see a parse, a line error and an empty
    table."""
    seen = set()
    path = tmp_path / "cdf.csv"

    @settings(max_examples=300, deadline=None)
    @given(cdf_texts())
    def check(text):
        path.write_bytes(text.encode("utf-8"))
        try:
            q, v = psim.read_bandwidth_cdf(path)
        except ValueError as exc:
            if str(exc) == f"{path}: empty bandwidth CDF":
                seen.add("empty")
                return
            line = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
            assert line and 1 <= int(line[1]) <= len(text.splitlines()), str(exc)
            seen.add("line error")
            return
        assert len(q) == len(v) >= 1
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(v)), (q, v)
        assert q[0] >= 0 and q[-1] <= 1 and np.all(np.diff(q) > 0), q
        assert v[0] >= 0 and np.all(np.diff(v) >= 0), v
        seen.add("parsed")

    check()
    assert seen == {"parsed", "line error", "empty"}


def test_bandwidth_cdf_allows_header_and_comments(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("quantile,uplink_bytes_per_sec\n# midpoint\n0.5,100\n")
    q, v = psim.read_bandwidth_cdf(path)
    assert q.tolist() == [0.5] and v.tolist() == [100.0]


# ------------------------------------------------------------ slot allocation

BIG = 1e18


def test_allocate_shares_a_common_uplink_evenly():
    up = np.array([10.0, BIG, BIG])
    down = np.array([BIG, BIG, BIG])
    grants = allocate_rows([(0, 1, 10.0, False), (0, 2, 10.0, False)], up, down)
    assert grants.tolist() == [5.0, 5.0]


def test_allocate_restores_preempt_backups():
    up = np.array([10.0, BIG, BIG])
    down = np.array([BIG, BIG, BIG])
    grants = allocate_rows([(0, 1, 10.0, False), (0, 2, 10.0, True)], up, down)
    assert grants.tolist() == [0.0, 10.0]


def test_allocate_progressive_filling_past_a_slow_receiver():
    up = np.array([10.0, BIG, BIG])
    down = np.array([BIG, 4.0, 100.0])
    grants = allocate_rows([(0, 1, 10.0, False), (0, 2, 10.0, False)], up, down)
    assert grants.tolist() == [4.0, 6.0]


def test_allocate_server_endpoint_is_unconstrained():
    up = np.array([10.0, 10.0])
    down = np.array([30.0, 30.0])
    grants = allocate_rows(
        [(SERVER, 0, 50.0, True), (1, 0, 50.0, False)], up, down
    )
    # server leg fills the receiver; the peer-to-peer leg finds no residual downlink
    assert grants.tolist() == [30.0, 0.0]
    grants = allocate_rows([(SERVER, 0, 20.0, True), (1, 0, 50.0, False)], up, down)
    assert grants.tolist() == [20.0, 10.0]


def test_allocate_caps_at_demand():
    up = np.array([100.0, BIG])
    down = np.array([BIG, BIG])
    grants = allocate_rows([(0, 1, 7.0, False)], up, down)
    assert grants.tolist() == [7.0]


def test_allocate_empty_is_empty():
    assert allocate_rows([], np.array([1.0]), np.array([1.0])).size == 0


transfer_lists = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(0.1, 100.0), st.booleans()),
    min_size=1,
    max_size=8,
)


@given(
    transfers=transfer_lists,
    up=st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
    down=st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
)
@settings(max_examples=150)
def test_allocate_never_violates_budgets(transfers, up, down):
    up = np.array(up)
    down = np.array(down)
    grants = allocate_rows(transfers, up, down)
    assert np.all(grants >= 0.0)
    for g, (_, _, demand, _) in zip(grants, transfers):
        assert g <= demand + 1e-9
    for peer in range(4):
        sent = sum(g for g, t in zip(grants, transfers) if t[0] == peer)
        received = sum(g for g, t in zip(grants, transfers) if t[1] == peer)
        assert sent <= up[peer] + 1e-6
        assert received <= down[peer] + 1e-6


@given(
    transfers=transfer_lists,
    up=st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
    down=st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
)
@settings(max_examples=150)
def test_allocate_restores_see_no_competition(transfers, up, down):
    up = np.array(up)
    down = np.array(down)
    grants = allocate_rows(transfers, up, down)
    only_restores = [t for t in transfers if t[3]]
    alone = allocate_rows(only_restores, up.copy(), down.copy())
    mixed = [g for g, t in zip(grants, transfers) if t[3]]
    assert np.allclose(mixed, alone, atol=1e-6)


endpoints = st.sampled_from([SERVER, 0, 1, 2, 3])
amounts = st.floats(0.0, 100.0)  # the 0.0 bound gives zero demands and budgets often


@given(
    transfers=st.lists(st.tuples(endpoints, endpoints, amounts, st.booleans()), max_size=10),
    up=st.lists(amounts, min_size=4, max_size=4),
    down=st.lists(amounts, min_size=4, max_size=4),
)
@settings(max_examples=300)
def test_allocate_is_maxmin_fair(transfers, up, down):
    up = np.array(up)
    down = np.array(down)
    grants = allocate_rows(transfers, up, down)
    assert maxmin_violations(transfers, grants, up, down, psim._EPS) == []


tie_amounts = st.integers(0, 8).map(float)  # equal shares and demands tie often
fine_amounts = st.one_of(amounts, st.sampled_from([psim._EPS / 2, psim._EPS]))  # at and under _EPS


def assert_matches_reference(src, dst, demand, restore, up, down):
    """allocate_slot_transfers gives the two-class reference's grants bit for
    bit, and leaves both budgets as they were."""
    src, dst = np.array(src, dtype=int), np.array(dst, dtype=int)
    demand, restore = np.array(demand, dtype=float), np.array(restore, dtype=bool)
    up, down = np.array(up, dtype=float), np.array(down, dtype=float)
    kept_up, kept_down = up.copy(), down.copy()
    expect = two_class_reference(src, dst, demand, restore, up, down, psim._EPS)
    assert np.array_equal(psim.allocate_slot_transfers(src, dst, demand, restore, up, down), expect)
    assert np.array_equal(up, kept_up) and np.array_equal(down, kept_down)


@given(data=st.data(), amount=st.sampled_from([tie_amounts, fine_amounts]))
@settings(max_examples=300)
def test_allocate_matches_reference_bit_for_bit(data, amount):
    rows = data.draw(st.lists(st.tuples(endpoints, endpoints, amount, st.booleans()), max_size=16))
    up = data.draw(st.lists(amount, min_size=4, max_size=4))
    down = data.draw(st.lists(amount, min_size=4, max_size=4))
    assert_matches_reference(*(zip(*rows) if rows else ((),) * 4), up, down)


@given(peers=st.integers(1, 40), n=st.integers(0, 300), mix=st.sampled_from([0.0, 0.2, 0.6]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_allocate_matches_reference_at_scale(peers, n, mix, seed):
    # enough transfers per endpoint for freezes, demand exits and compactions to interleave
    rng = np.random.default_rng(seed)
    special = np.array([0.0, psim._EPS / 2, psim._EPS, 3e7, 2.5e8])  # zeros, at and under _EPS, ties

    def amounts(size):  # log-uniform in 1e6..1e9; a fraction mix of them special
        return np.where(rng.random(size) < mix, rng.choice(special, size), 10 ** rng.uniform(6, 9, size))

    src, dst = rng.integers(SERVER, peers, (2, n))  # SERVER at either end, server-to-server rows too
    demand, up, down = amounts(n), amounts(peers), amounts(peers)
    restore = rng.random(n) < rng.random()  # both classes, in any proportion
    assert_matches_reference(src, dst, demand, restore, up, down)


@pytest.mark.parametrize("up, down, rows", [
    # uplink 0 and downlink 2 hold zero budgets that no transfer uses: 0/0 shares
    ([0.0, BIG, BIG], [BIG, BIG, 0.0], [(1, 0, 1e8), (2, 1, 5e7), (SERVER, 0, 2e8)]),
    # transfer 0's demand runs out with uplink 0's budget, leaving a 0/0 share
    ([5e7, BIG], [BIG, BIG], [(0, 1, 5e7), (1, 0, 1e8), (SERVER, 1, 3e8)]),
])
def test_allocate_ignores_endpoints_nothing_uses(up, down, rows):
    for restore in ((False, False, False), (True, False, False), (False, True, True)):
        assert_matches_reference(*zip(*rows), restore, up, down)


def test_allocate_gives_nothing_behind_an_uplink_drained_by_rounding():
    # three restores draw uplink 0 down to 5 - 5/3 - 5/3 - 5/3, which rounds
    # to -4.4e-16; the backup behind them gets nothing.  Whether _fill clips
    # that residual to 0.0 is not seen here: either share is at most _EPS
    up = [5.0, BIG, BIG, BIG]
    down = [BIG] * 4
    assert_matches_reference([0, 0, 0, 0], [1, 2, 3, 1], [10.0] * 4, [True, True, True, False], up, down)


def test_allocation_replay_tool_agrees_with_the_reference():
    """tests/allocation_replay.py, the per-call timing of
    allocate_slot_transfers over one run's calls, runs at a toy size and
    finds every call's grants identical to the reference's."""
    lines = tool_output("allocation_replay.py", "20", "96")
    assert "grants bit-identical to the reference, budgets unchanged: yes" in lines
    assert re.match(r"20 peers x 96 slots: [1-9]\d* allocation calls", lines[0]), lines[0]


# ------------------------------------------------------- closed-form backups

def always_on(num_peers, num_slots):
    return make_matrix(["1" * num_slots] * num_peers)


def test_single_fragment_backup_takes_exactly_one_slot(flat_cdf_file):
    config = cfg(flat_cdf_file, fragment_size=int(UP_SLOT))  # k=1
    report = psim.run(config, always_on(2, 8))
    owner_rows = [r for r in report.peers if not math.isnan(r.ttb)]
    assert len(owner_rows) == 2  # both peers back up to each other
    for r in owner_rows:
        assert r.ttb == SLOT
        assert r.min_ttb == pytest.approx(SLOT)
        assert r.redundancy == 1.0
    assert report.fixed_n == 1  # measured availability 1.0 needs no redundancy


def test_parallel_fragments_share_the_uplink(flat_cdf_file):
    config = cfg(flat_cdf_file, backup_parallelism=4)
    report = psim.run(config, always_on(6, 8))
    for r in report.peers:
        assert r.ttb == SLOT  # 4 fragments, 4 parallel, fluid sharing


def test_halved_parallelism_doubles_completion(flat_cdf_file):
    config = cfg(flat_cdf_file, backup_parallelism=2)
    report = psim.run(config, always_on(6, 8))
    for r in report.peers:
        assert r.ttb == 2 * SLOT


def test_backup_waits_for_owner_online_slots(flat_cdf_file):
    # Owner online every other slot: a two-slot single-fragment object needs
    # its second online slot, so it lands at the end of slot 3 (elapsed 3h).
    config = cfg(
        flat_cdf_file,
        object_size=2 * int(UP_SLOT),
        fragment_size=2 * int(UP_SLOT),
        fixed_target=0.5,  # measured a = 0.75 then yields n = 1
    )
    rows = ["10101010", "11111111"]
    report = psim.run(config, make_matrix(rows))
    assert report.fixed_n == 1
    owner = report.peers[0]
    assert owner.min_ttb == pytest.approx(3 * SLOT)
    assert owner.ttb == 3 * SLOT
    # the helper's own upload stalls whenever its target (the owner) is offline
    helper = report.peers[1]
    assert helper.min_ttb == pytest.approx(2 * SLOT)
    assert helper.ttb == 3 * SLOT
    assert math.isnan(report.peers[0].ttr)


def test_slot_length_comes_from_the_trace(flat_cdf_file):
    # half-hour slots: the one-hour object takes two of them
    report = psim.run(cfg(flat_cdf_file), make_matrix(["1" * 8] * 6, slot_seconds=1800.0))
    assert report.slot_seconds == 1800.0
    for r in report.peers:
        assert r.min_ttb == pytest.approx(2 * 1800.0)
        assert r.ttb == 2 * 1800.0 and r.ttb % 1800.0 == 0


def test_unfinishable_backup_reports_nan(flat_cdf_file):
    config = cfg(flat_cdf_file, object_size=40 * int(UP_SLOT), fragment_size=10 * int(UP_SLOT))
    report = psim.run(config, always_on(3, 4))  # 4 slots cannot carry 40 slot-loads
    for r in report.peers:
        assert math.isnan(r.ttb)
        assert math.isinf(r.min_ttb)


@settings(max_examples=200, deadline=None)
@given(
    peers=st.integers(1, 29),
    slots=st.integers(0, 699),
    online=st.floats(0.0, 1.0),
    slot=st.one_of(st.sampled_from([0.001, 0.1, 1 / 3, 1800.0, 3600.0]), st.floats(1e-3, 3600.0)),
    object_size=st.integers(1, 10 * 2**30),
    seed=st.integers(0, 2**32 - 1),
)
@example(peers=4, slots=6, online=0.5, slot=0.1, object_size=10 * 2**30, seed=0)  # no row carries the object
@example(peers=29, slots=699, online=0.3, slot=1 / 3, object_size=2**20, seed=1)
def test_min_ttb_matches_the_slot_loop(peers, slots, online, slot, object_size, seed):
    # bit for bit: minTTB reaches the report, so a rounding difference moves it
    rng = np.random.default_rng(seed)
    bits = rng.random((peers, slots)) < online
    need = object_size / np.maximum(rng.lognormal(math.log(77.0), 1.852, peers) * 1000.0, 1e-6)
    expect = [loop_ideal_seconds(row, n, slot) for row, n in zip(bits.tolist(), need.tolist())]
    assert psim._ideal_elapsed(bits, need, slot).tolist() == expect


def test_min_ttb_ends_in_the_slot_that_completes_the_object():
    bits = np.array([[1, 1, 0, 1], [0, 1, 1, 0]], dtype=bool)
    assert psim._ideal_elapsed(bits, np.full(2, 2 * SLOT), SLOT).tolist() == [2 * SLOT, 3 * SLOT]


def test_peer_records_hold_python_floats(flat_cdf_file):
    # the report writes floats with repr, which numpy 2 prints as np.float64(...)
    config = cfg(flat_cdf_file, mean_lifetime_days=5.0, bandwidth_source="lognormal", seed=21)
    report = psim.run(config, trace.synth_trace(15, 120, availability=(0.4, 0.8), seed=3))
    assert any(math.isfinite(r.ettr) for r in report.peers)
    for r in report.peers:
        assert type(r.peer) is int
        assert all(type(getattr(r, f.name)) is float for f in fields(r) if f.name != "peer"), r
    assert report.crashes and all(type(c.unavoidable) is bool for c in report.crashes)


def test_immediate_mode_never_touches_the_server(flat_cdf_file):
    config = cfg(flat_cdf_file, mean_lifetime_days=2.0, seed=3)
    report = psim.run(config, always_on(10, 100))
    assert report.server_outbound.sum() == 0.0
    assert report.server_inbound.sum() == 0.0
    assert report.server_buffered.sum() == 0.0


def test_report_shapes_and_availability(flat_cdf_file):
    m = make_matrix(["1100", "1111", "0011"])
    report = psim.run(cfg(flat_cdf_file), m)
    assert report.num_peers == 3
    assert report.num_slots == 4
    assert report.measured_availability == pytest.approx(8 / 12)
    assert len(report.peers) == 3
    assert report.server_outbound.shape == (4,)


# ------------------------------------------------------------ crash mechanics

def prepared_sim(flat_cdf_file, num_peers=6, num_slots=48, **overrides):
    config = cfg(flat_cdf_file, **overrides)
    return Simulation(config, always_on(num_peers, num_slots))


def reserve_and_place(simulation, owner_idx, frag, holder):
    """Place one fragment as a finished upload does: reserve the cell and a
    quota slot, then turn the reservation into the placement."""
    simulation.placed[owner_idx, holder] = psim.IN_FLIGHT
    simulation.occupied[holder] += 1
    simulation._place(owner_idx, frag, holder)


def place(simulation, owner_idx, holders):
    """Hand-place one fragment per holder for owner_idx and mark it complete."""
    for frag, holder in enumerate(holders):
        reserve_and_place(simulation, owner_idx, frag, holder)
    simulation.next_frag[owner_idx] = len(holders)
    simulation.phase[owner_idx] = psim.COMPLETE
    simulation.ttb[owner_idx] = simulation.slot


def test_holder_crash_erases_stored_fragments(flat_cdf_file):
    s = prepared_sim(flat_cdf_file)
    place(s, 0, [1, 2, 3, 4])
    s.on_crash(1, now=0.0, slot_idx=0)
    assert not (s.placed[:, 1] >= 0).any() and s.occupied[1] == 0
    assert placements_of(s, 0) == {1: 2, 2: 3, 3: 4}
    assert s.placed_count[0] == 3
    # the holder's own object had zero fragments placed: gone with the crash
    record = s.crashes[-1]
    assert record.peer == 1 and record.outcome == "lost"
    assert record.unfinished and record.unavoidable
    assert s.phase[1] == psim.LOST


def test_owner_crash_with_enough_holders_restores(flat_cdf_file):
    s = prepared_sim(flat_cdf_file)
    place(s, 0, [1, 2, 3, 4])
    s.on_crash(0, now=7200.0, slot_idx=2)
    assert s.phase[0] == psim.RESTORING
    record = s.crashes[-1]
    assert not record.unfinished
    assert record.response_slot == 2
    assert record.outcome == "pending"


def test_owner_crash_below_k_reachable_is_lost(flat_cdf_file):
    s = prepared_sim(flat_cdf_file)
    place(s, 0, [1, 2, 3, 4])
    for holder in (1, 2):
        s.on_crash(holder, now=0.0, slot_idx=0)
    s.on_crash(0, now=3600.0, slot_idx=1)
    assert s.phase[0] == psim.LOST
    assert placements_of(s, 0) == {} and s.placed_count[0] == 0
    assert s.crashes[-1].outcome == "lost"


def test_crash_and_loss_keep_indexes(flat_cdf_file):
    s = prepared_sim(flat_cdf_file, response="delayed")
    place(s, 0, [1, 2, 3, 4])
    place(s, 5, [0, 1, 2, 3])
    assert s.placed[0].tolist() == [psim.EMPTY, 0, 1, 2, 3, psim.EMPTY]
    assert s.occupied.tolist() == [1, 2, 2, 2, 1, 0] and s.placed_count.tolist() == [4, 0, 0, 0, 0, 4]
    s.on_crash(1, now=0.0, slot_idx=0)  # holder of both owners, gone for a while
    assert index_violations(s, 0) == []
    assert not (s.placed[:, 1] >= 0).any() and s.back_at[1] < math.inf
    s.on_crash(2, now=0.0, slot_idx=0)
    s.on_crash(0, now=3600.0, slot_idx=1)  # 2 of k=4 left: lost, releasing its holders
    assert s.phase[0] == psim.LOST
    assert index_violations(s, 1) == []
    assert (s.placed[0] == psim.EMPTY).all() and s.occupied.tolist() == [0, 0, 0, 1, 0, 0]
    assert s.placed_count.tolist() == [0, 0, 0, 0, 0, 1]


def test_unavoidable_flag_set_before_min_ttb(flat_cdf_file):
    s = prepared_sim(flat_cdf_file)
    # crash at t=0 with nothing placed: even the ideal schedule had no time
    s.on_crash(2, now=0.0, slot_idx=0)
    record = s.crashes[-1]
    assert record.unfinished and record.unavoidable


def test_crash_redraws_lifetime(flat_cdf_file):
    s = prepared_sim(flat_cdf_file, mean_lifetime_days=5.0)
    before = s.next_crash[3]
    s.on_crash(3, now=before, slot_idx=0)
    assert s.next_crash[3] > before


def test_delayed_response_schedules_return(flat_cdf_file):
    s = prepared_sim(flat_cdf_file, response="delayed", delay_mean_days=3.0)
    place(s, 0, [1, 2, 3, 4])
    s.on_crash(0, now=0.0, slot_idx=0)
    assert 0.0 < s.back_at[0] < math.inf
    assert s.crashes[-1].response_slot is None
    assert not s._online(0)[0]


def test_a_return_past_the_largest_float_stays_absent(flat_cdf_file):
    # the delay draw overflows to inf, which back_at would read as present
    s = prepared_sim(flat_cdf_file, response="delayed", delay_mean_days=1e306)
    place(s, 0, [1, 2, 3, 4])
    s.on_crash(0, now=0.0, slot_idx=0)
    assert s.back_at[0] < math.inf and not s._online(0)[0]
    assert s.crashes[-1].response_slot is None


# ------------------------------------------------- end-to-end crash dynamics

Transfer = namedtuple("Transfer", "row kind src dst owner frag serial done")
KIND_NAMES = {psim.RESTORE: "restore", psim.BACKUP: "backup", psim.REPAIR_IN: "repair_in",
              psim.REPAIR_OUT: "repair_out"}


def live_transfers(simulation):
    """The in-flight transfers, one per live row of the simulator's transfer
    table, in row order."""
    s = simulation
    return [Transfer(row, *s.table[:, row].tolist(), float(s.done[row]))
            for row in range(s.used) if s.table[psim.KIND, row] != psim.DEAD]


class ProgressCheckSimulation(Simulation):
    """Asserts before every completion step that the table's rows are in
    strictly increasing serial order, so allocation rows and completions
    follow the order the transfers were opened.  Also snapshots every
    transfer's done bytes around each allocation step and checks them
    against the recorded allocation call: each transfer must gain exactly
    its own grant (nothing, if it was not in the call), and no transfer may
    pass the fragment size."""

    def __init__(self, config, matrix, calls):
        super().__init__(config, matrix)
        self.calls = calls
        self.checked = 0
        self.progress_errors = []

    def _step_allocate(self, slot_idx):
        before = {t.serial: t.done for t in live_transfers(self)}
        made = len(self.calls)
        finished = super()._step_allocate(slot_idx)
        transfers = live_transfers(self)
        grants = {}
        if len(self.calls) > made:
            call = self.calls[-1]
            # the call's rows are a subsequence of the transfers in serial order
            pending = iter(transfers)
            for spec, grant in zip(call.specs, call.grants):
                for t in pending:
                    if (t.src, t.dst, self.f - before[t.serial], t.kind == psim.RESTORE) == spec:
                        grants[t.serial] = float(grant)
                        break
                else:
                    self.progress_errors.append(f"slot {slot_idx}: no transfer for row {spec}")
            self.checked += 1
        if sorted(before) != [t.serial for t in transfers]:
            self.progress_errors.append(f"slot {slot_idx}: the allocation added or dropped transfers")
        for t in transfers:
            if t.done != before[t.serial] + grants.get(t.serial, 0.0):
                self.progress_errors.append(f"slot {slot_idx}: transfer {t.serial} gained "
                                            f"{t.done - before[t.serial]}, granted {grants.get(t.serial, 0.0)}")
            if t.done > self.f + psim._EPS:
                self.progress_errors.append(f"slot {slot_idx}: transfer {t.serial} done {t.done} > f")
        return finished

    def _step_completions(self, slot_idx, finished):
        serials = self.table[psim.SERIAL, :self.used].tolist()
        assert all(a < b for a, b in zip(serials, serials[1:])), f"slot {slot_idx}: out of serial order"
        super()._step_completions(slot_idx, finished)


def churned_run(config, matrix):
    """(simulation, report, recorded allocation calls) of one checked run."""
    with recorded_allocations() as calls:
        simulation = ProgressCheckSimulation(config, matrix, calls)
        report = simulation.run()
    return simulation, report, calls


@pytest.fixture(scope="module")
def churn_report(flat_cdf_file):
    """A churned run on the flat bandwidth table: no downlink ever binds."""
    config = cfg(
        flat_cdf_file,
        mean_lifetime_days=4.0,
        redundancy_policy="fixed",
        fixed_target=0.99,
        seed=12,
    )
    return churned_run(config, trace.synth_trace(24, 24 * 14, availability=(0.5, 0.9), seed=7))


@pytest.fixture(scope="module")
def binding_churn_report(spread_cdf_file):
    """A churned run whose downlinks bind: uplinks spread 30-250 kB/s,
    fragments of a full slot-load, and every restore fetches all k fragments
    at once, so a slow owner's downlink is the bottleneck of its restore."""
    config = cfg(
        spread_cdf_file,
        object_size=4 * int(UP_SLOT),
        fragment_size=int(UP_SLOT),
        storage_quota=40 * int(UP_SLOT),
        mean_lifetime_days=2.0,
        redundancy_policy="fixed",
        fixed_target=0.99,
        parallel_downloads=4,
        seed=12,
    )
    return churned_run(config, trace.synth_trace(24, 24 * 14, availability=(0.5, 0.9), seed=7))


@pytest.fixture(scope="module")
def lognormal_churn_report():
    """A churned run shaped like the sim-fixed-assisted benchmark workload:
    lognormal bandwidth, k = 8, a 40-fragment quota, the fixed policy and
    delayed_assisted repair.  Heterogeneous budgets saturate at many
    distinct points, so the allocator sees long mixes of freezes and
    demand exits."""
    frag = 160 << 20
    config = SimConfig(
        object_size=8 * frag,
        fragment_size=frag,
        storage_quota=40 * frag,
        mean_lifetime_days=5.0,
        redundancy_policy="fixed",
        response="delayed_assisted",
        repair_timeout_days=1.0,
        bandwidth_source="lognormal",
        seed=1,
    )
    matrix = trace.synth_trace(36, 168, availability=(0.3, 0.7), diurnal_amplitude=0.5, weekend_factor=0.8, seed=1)
    return churned_run(config, matrix)


def test_lognormal_churn_loses_episodes_and_uses_the_server(lognormal_churn_report):
    _, report, _ = lognormal_churn_report
    assert "lost" in {c.outcome for c in report.crashes}
    assert report.server_outbound.sum() > 0
    assert report.server_inbound.sum() > 0


def test_churn_produces_both_outcomes(churn_report):
    _, report, _ = churn_report
    outcomes = {c.outcome for c in report.crashes}
    assert "restored" in outcomes
    assert len(report.crashes) >= 10


def test_churn_ttb_and_ttr_bounds(churn_report):
    _, report, _ = churn_report
    finished = [r for r in report.peers if not math.isnan(r.ttb)]
    assert finished
    for r in finished:
        assert r.ttb >= r.min_ttb - 1e-6
    restored = [r for r in report.peers if not math.isnan(r.ttr)]
    assert restored
    for r in restored:
        assert r.ttr >= r.min_ttr - 1e-6


def test_churn_episode_consistency(churn_report):
    _, report, _ = churn_report
    for c in report.crashes:
        assert c.outcome in ("restored", "lost", "pending")
        if c.response_slot is not None:
            assert c.response_slot >= c.crash_slot
        if c.unavoidable:
            assert c.unfinished


def placements_of(simulation, owner):
    """The owner's {fragment id: holder}, read cell by cell from the
    placement matrix."""
    row = simulation.placed[owner].tolist()
    return {frag: holder for holder, frag in enumerate(row) if frag >= 0}


def stored_counts(simulation):
    """Fragments each peer stores for others, counted from the placements."""
    holders = [h for owner in range(simulation.P) for h in placements_of(simulation, owner).values()]
    return np.bincount(np.asarray(holders, dtype=int), minlength=simulation.P)


def occupied_counts(simulation):
    """Fragments each peer stores for others plus uploads in flight to it,
    counted from the placements and the transfer table."""
    return (stored_counts(simulation) + uploads_in_flight(simulation)[0]).tolist()


def test_churn_storage_maps_stay_mirrored(churn_report):
    simulation, _, _ = churn_report
    for owner in range(simulation.P):
        placements = placements_of(simulation, owner)
        assert len(placements) == np.count_nonzero(simulation.placed[owner] >= 0)  # distinct fragment ids
        assert simulation.placed_count[owner] == len(placements)
        assert simulation.placed[owner, owner] == psim.EMPTY
    assert simulation.occupied.tolist() == occupied_counts(simulation)


def link_budgets(simulation):
    """Per-peer (uplink, downlink) bytes of one slot, from the peers' rates."""
    return simulation.uplink * SLOT, simulation.downlink * SLOT


def assert_call_within_link_budgets(simulation, call, rel=0.0):
    """rel allows for rounding: the grants through one endpoint are summed
    in another order than the allocator subtracted them."""
    up, down = link_budgets(simulation)
    sent, received = link_loads(call, simulation.P)
    assert np.all(sent <= up * (1 + rel) + 1e-6)
    assert np.all(received <= down * (1 + rel) + 1e-6)


def assert_within_link_budgets(simulation, calls):
    assert 0 < len(calls) <= simulation.T
    for call in calls:
        assert_call_within_link_budgets(simulation, call)


def assert_bytes_conserved(simulation, calls):
    """No server legs in immediate mode: every byte sent is a byte received."""
    assert simulation.config.response == "immediate"
    total_sent = total_received = 0.0
    for call in calls:
        sent, received = link_loads(call, simulation.P)
        total_sent += sent.sum()
        total_received += received.sum()
    assert total_sent == pytest.approx(total_received, rel=1e-12)


def assert_maxmin_fair(simulation, calls):
    up, down = link_budgets(simulation)
    assert any(call.restore.any() for call in calls)  # restores compete too
    for slot, call in enumerate(calls):
        assert maxmin_violations(call.specs, call.grants, up, down, psim._EPS) == [], f"call {slot}"


def test_churn_audit_respects_link_budgets(churn_report):
    simulation, _, calls = churn_report
    assert_within_link_budgets(simulation, calls)
    assert_bytes_conserved(simulation, calls)


def test_churn_allocations_are_maxmin_fair(churn_report):
    simulation, _, calls = churn_report
    assert_maxmin_fair(simulation, calls)


def test_binding_churn_saturates_downlinks(binding_churn_report):
    simulation, report, calls = binding_churn_report
    _, down = link_budgets(simulation)
    saturated = sum(
        bool(np.any(link_loads(call, simulation.P)[1] >= down - 1.0)) for call in calls
    )
    assert saturated >= 20
    assert {c.outcome for c in report.crashes} >= {"restored", "lost"}


def test_binding_churn_respects_link_budgets(binding_churn_report):
    simulation, _, calls = binding_churn_report
    assert_within_link_budgets(simulation, calls)
    assert_bytes_conserved(simulation, calls)


def test_binding_churn_allocations_are_maxmin_fair(binding_churn_report):
    simulation, _, calls = binding_churn_report
    assert_maxmin_fair(simulation, calls)


@pytest.mark.parametrize("run", ["churn_report", "binding_churn_report", "lognormal_churn_report"])
def test_churn_grants_match_reference_bit_for_bit(request, run):
    simulation, _, calls = request.getfixturevalue(run)
    for slot, call in enumerate(calls):
        expect = two_class_reference(call.src, call.dst, call.demand, call.restore, simulation.up_budget,
                                     simulation.down_budget, psim._EPS)
        assert np.array_equal(call.grants, expect), f"call {slot}"


@pytest.mark.parametrize("run", ["churn_report", "binding_churn_report", "lognormal_churn_report"])
def test_churn_grants_match_transfer_progress(request, run):
    simulation, _, calls = request.getfixturevalue(run)
    assert simulation.checked == len(calls) > 0
    assert simulation.progress_errors == []


def test_churn_quota_never_exceeded(churn_report):
    simulation, _, _ = churn_report
    cap = simulation.config.storage_quota // simulation.f
    assert np.all(np.array(occupied_counts(simulation)) <= cap)
    assert simulation.occupied.tolist() == occupied_counts(simulation)


def test_same_seed_reproduces_the_run(flat_cdf_file):
    config = cfg(flat_cdf_file, mean_lifetime_days=5.0, seed=21)
    matrix = trace.synth_trace(15, 120, availability=(0.4, 0.8), seed=3)
    a = psim.run(config, matrix)
    b = psim.run(config, matrix)
    assert a.peers == b.peers
    assert a.crashes == b.crashes
    assert np.array_equal(a.server_outbound, b.server_outbound)
    assert a.avg_redundancy == b.avg_redundancy or (
        math.isnan(a.avg_redundancy) and math.isnan(b.avg_redundancy)
    )


def test_different_seed_changes_the_run(flat_cdf_file):
    matrix = trace.synth_trace(15, 120, availability=(0.4, 0.8), seed=3)
    a = psim.run(cfg(flat_cdf_file, mean_lifetime_days=5.0, seed=21), matrix)
    b = psim.run(cfg(flat_cdf_file, mean_lifetime_days=5.0, seed=22), matrix)
    assert a.crashes != b.crashes


# ------------------------------------------------------------ index oracle

def index_violations(simulation, col):
    """Where the simulator's indexes differ from the peer and transfer state
    they mirror, each rebuilt here with plain loops over the cells of the
    placement matrix and the live rows of the transfer table, and where that
    state breaks an invariant of the model: table rows out of serial order,
    a peer whose stored and incoming fragments exceed its quota, a cell on
    the diagonal that is not EMPTY, a fragment id placed twice or not yet
    issued, server traffic that is not whole fragments, a transfer its
    owner's state rules out (a backup while restoring, a repair upload while
    present, a restore unless present and restoring), or a crash episode out
    of step with its owner (see episode_violations)."""
    s = simulation
    found = []
    stored = [0] * s.P
    in_flight = []
    for owner, row in enumerate(s.placed.tolist()):
        frags = []
        for holder, cell in enumerate(row):
            if cell == psim.IN_FLIGHT:
                in_flight.append((owner, holder))
            elif cell != psim.EMPTY:
                frags.append(cell)
                stored[holder] += 1
        if row[owner] != psim.EMPTY:
            found.append(f"peer {owner} has cell {row[owner]} on itself")
        if len(set(frags)) != len(frags) or not all(0 <= frag < s.next_frag[owner] for frag in frags):
            found.append(f"peer {owner} has fragment ids {frags}, next {s.next_frag[owner]}")
        if s.placed_count[owner] != len(frags):
            found.append(f"placed_count of peer {owner} is {s.placed_count[owner]}, its row holds {len(frags)}")
    incoming, uploads = uploads_in_flight(s)
    occupied = [stored[i] + incoming[i] for i in range(s.P)]
    for holder in range(s.P):
        if occupied[holder] > s.capacity_slots:
            found.append(f"peer {holder} stores {stored[holder]} and receives {incoming[holder]} "
                         f"> quota {s.capacity_slots}")
    if s.occupied.tolist() != occupied:
        found.append(f"occupied {s.occupied.tolist()} != stored {stored} + incoming {incoming}")
    for name, series in (("out_bytes", s.out_bytes), ("in_bytes", s.in_bytes)):
        if np.any(series % s.f):
            found.append(f"server {name} not whole fragments: {series[series % s.f != 0]}")
    serials = s.table[psim.SERIAL, :s.used].tolist()
    if any(a >= b for a, b in zip(serials, serials[1:])):
        found.append(f"table rows out of serial order: {serials}")
    transfers = live_transfers(s)
    if any(t.kind not in KIND_NAMES for t in transfers):
        found.append(f"unknown transfer kinds {sorted({t.kind for t in transfers} - KIND_NAMES.keys())}")
    if in_flight != sorted(uploads):
        found.append(f"IN_FLIGHT cells {in_flight} are not the uploads in flight {sorted(uploads)}")
    for t in transfers:
        present, restoring = s.back_at[t.owner] == math.inf, s.phase[t.owner] == psim.RESTORING
        if (t.kind == psim.BACKUP and restoring or t.kind == psim.REPAIR_OUT and present
                or t.kind == psim.RESTORE and not (present and restoring)):
            where = "present" if present else "absent"
            found.append(f"{where} phase {s.phase[t.owner]} owner {t.owner} has {KIND_NAMES[t.kind]} "
                         f"transfer {t.serial} in flight")
    found += episode_violations(s)
    online = [s.back_at[i] == math.inf and (s.phase[i] == psim.RESTORING or bool(s.cols[col, i])) for i in range(s.P)]
    if s._online(col).tolist() != online:
        found.append(f"online flags {s._online(col).tolist()} != {online}")
    return found


def episode_violations(simulation):
    """Where a crash episode and its owner disagree.  An owner is restoring
    exactly while it has an open episode; that episode is pending, names its
    owner, and has no response slot exactly while the owner is absent.  Only
    a restoring owner has downloaded fragments or a repair stage other than
    NO_REPAIR, an absent one has downloaded nothing, and the pending records
    of the run are exactly the open episodes.  The downloaded and buffered
    flags are two bool matrices of one shape whose fragment-id axis covers
    every id issued, and no flag sits at an id its owner has not issued."""
    s = simulation
    found = []
    downloaded, buffered = s.downloaded.tolist(), s.buffered.tolist()
    if s.downloaded.dtype != bool or s.buffered.dtype != bool or s.downloaded.shape != s.buffered.shape:
        found.append(f"flags {s.downloaded.dtype} {s.downloaded.shape} and {s.buffered.dtype} {s.buffered.shape}")
    if len(downloaded[0]) < max(s.next_frag):
        found.append(f"flags {len(downloaded[0])} ids wide, next ids up to {max(s.next_frag)}")
    for i in range(s.P):
        phase, back_at, episode = s.phase[i], s.back_at[i], s.episode[i]
        restoring = phase == psim.RESTORING
        if restoring != (episode is not None):
            found.append(f"phase {phase} peer {i} has episode {episode}")
        elif episode is not None:
            if episode.outcome != "pending" or episode.peer != i:
                found.append(f"peer {i} has open episode {episode}")
            if (episode.response_slot is None) != (back_at != math.inf):
                found.append(f"peer {i} back at {back_at} has response slot {episode.response_slot}")
        got = [frag for frag, flag in enumerate(downloaded[i]) if flag]
        if not restoring and (got or s.repair_stage[i] != psim.NO_REPAIR):
            found.append(f"phase {phase} peer {i} has downloaded {got}, stage {s.repair_stage[i]}")
        if back_at != math.inf and got:
            found.append(f"absent peer {i} has downloaded {got}")
        for name, flags in (("downloaded", downloaded[i]), ("buffered", buffered[i])):
            if any(flags[s.next_frag[i]:]):
                found.append(f"peer {i} has {name} ids {[j for j, flag in enumerate(flags) if flag]}, "
                             f"next {s.next_frag[i]}")
    pending = [id(c) for c in s.crashes if c.outcome == "pending"]
    if sorted(pending) != sorted(id(e) for e in s.episode if e is not None):
        found.append("pending crash records differ from the open episodes")
    return found


def uploads_in_flight(simulation):
    """Uploads in flight per destination, and the (owner, dst) pair of each,
    from the live rows of the transfer table alone."""
    incoming = [0] * simulation.P
    pairs = []
    for t in live_transfers(simulation):
        if t.kind in psim.UPLOADS:
            incoming[t.dst] += 1
            pairs.append((t.owner, t.dst))
    return incoming, pairs


class IndexCheckSimulation(Simulation):
    """Checks every index against index_violations after each per-slot phase,
    each target list against a plain loop over the peers, and each per-owner
    row lookup against a plain loop over the table.

    The simulator reads its upload reservations live.  That is exact only if
    no upload ends while the task step opens new ones, so within that step
    no IN_FLIGHT cell may change.  Uploads open in batches of owners that
    write the table once, at the batch's end; each owner's targets at its
    turn are checked against the plain loop over the table plus the draws of
    the owners before it in the batch.  A kept decision (stopping or repair
    risk) must have been made on the owner's current holders.  The task step
    must visit exactly the owners its screen admits,
    recomputed here with plain loops, with no two maintenance batches in a
    row, and every owner it skips must have been unable to open an upload.
    Each report field is a Python float and is written at most once: once it
    is no longer the math.nan object, it keeps its object.  redundancy is set
    exactly when ttb is.  Also notes each slot in which an owner returns with
    a repair upload in flight, the case the return step must cancel; each
    slot in which only the holder cap keeps an adaptive owner out of the task
    step; each slot in which a draw fills a peer's quota that a later owner
    of the same batch would otherwise have drawn from; each slot in which
    a restore step marks its owner lost with a maintenance batch after it;
    and each slot whose completions leave a downloaded or buffered flag at a
    fragment id at or past the flags' initial width.  After the run, each
    slot's buffered bytes must be the buffered flags counted at the end of
    its completion step, times f."""

    UNDECIDED = {"needs": -1, "at_risk": -1}  # each kept decision's value until it is made
    REPORT_FIELDS = ("ttb", "ttr", "ettr", "redundancy")

    def __init__(self, config, matrix):
        super().__init__(config, matrix)
        self.written = {name: list(getattr(self, name)) for name in self.REPORT_FIELDS}  # as of the last check
        self.reserved = None  # IN_FLIGHT cells last seen in the task step
        self.decided = {}  # (memo, owner) -> the holders its last fresh decision read
        self.steps = None  # the task step's visits, in order: ("batch" | "restore" | "lost", owners)
        self.slot_idx = None  # the slot being run
        self.turns = self.pending = None  # an upload batch's owners left to draw, and (owner, dst) of its draws
        self.returns_mid_repair = []
        self.capped = []
        self.filled_mid_batch = []
        self.lost_before_batch = []
        self.initial_width = self.downloaded.shape[1]
        self.widened = []
        self.buffered_counts = []  # buffered flags at the end of each slot's completion step

    def _holders(self, owner):
        return list(placements_of(self, owner).values())

    def _check(self, phase, slot_idx):
        found = index_violations(self, slot_idx)
        found += [f"peer {i} keeps a {memo} decision made on holders {self.decided[memo, i]}"
                  for memo, undecided in self.UNDECIDED.items() for i in range(self.P)
                  if getattr(self, memo)[i] != undecided and self.decided[memo, i] != self._holders(i)]
        for name in self.REPORT_FIELDS:
            values, before = getattr(self, name), self.written[name]
            found += [f"peer {i} {name} {values[i]!r} is not a float" for i in range(self.P)
                      if type(values[i]) is not float]
            found += [f"peer {i} {name} {before[i]} written again as {values[i]}" for i in range(self.P)
                      if before[i] is not math.nan and values[i] is not before[i]]
            self.written[name] = list(values)
        found += [f"peer {i} has ttb {self.ttb[i]} and redundancy {self.redundancy[i]}" for i in range(self.P)
                  if math.isnan(self.ttb[i]) != math.isnan(self.redundancy[i])]
        assert not found, f"slot {slot_idx}, after {phase}: {found[:3]}"

    def _decide(self, memo, decide, owner):
        fresh = getattr(self, memo)[owner] == self.UNDECIDED[memo]
        value = decide(owner)
        if fresh:
            self.decided[memo, owner] = self._holders(owner)
        return value

    def _needs_fragments(self, owner):
        return self._decide("needs", super()._needs_fragments, owner)

    def _at_risk(self, owner):
        return self._decide("at_risk", super()._at_risk, owner)

    def _owned(self, owner, kind):
        rows = super()._owned(owner, kind)
        assert rows.tolist() == [t.row for t in live_transfers(self) if t.owner == owner and t.kind == kind]
        return rows

    def _check_reservations_kept(self, slot_idx):
        assert np.all(self.placed[self.reserved] == psim.IN_FLIGHT), \
            f"slot {slot_idx}: an IN_FLIGHT cell changed in the task step"
        self.reserved = self.placed == psim.IN_FLIGHT

    def _targets(self, owner_idx, col):
        """The owner's eligible targets in slot col from a plain loop over the
        peers, counting the batch's draws so far as uploads in flight; and
        whether those draws fill the quota of a peer it would otherwise get."""
        stored = stored_counts(self)
        incoming, uploads = uploads_in_flight(self)
        before = list(incoming)
        for owner, dst in self.pending:
            incoming[dst] += 1
            uploads.append((owner, dst))
        holders = set(self._holders(owner_idx))
        free = [
            i for i in range(self.P)
            if i != owner_idx
            and self.back_at[i] == math.inf
            and (self.phase[i] == psim.RESTORING or self.cols[col, i])
            and i not in holders
            and (owner_idx, i) not in uploads
            and stored[i] + before[i] < self.capacity_slots
        ]
        expect = [i for i in free if stored[i] + incoming[i] < self.capacity_slots]
        return expect, expect != free

    def _eligible(self, owners, online):
        self.turns = iter(owners.tolist())
        return super()._eligible(owners, online)

    def _open_uploads(self, kind, owners, counts, online):
        self.pending = []
        super()._open_uploads(kind, owners, counts, online)
        assert next(self.turns, None) is None, f"slot {self.slot_idx}: an owner of the batch had no turn"
        self.turns = self.pending = None

    def _draw(self, items, count):
        if self.pending is None:  # a restore or repair download pick
            return super()._draw(items, count)
        owner = next(self.turns)
        if self.reserved is not None:
            self._check_reservations_kept(self.slot_idx)
        expect, filled = self._targets(owner, self.slot_idx)
        assert items == expect, f"slot {self.slot_idx}: owner {owner} draws from {items}, not {expect}"
        if filled:
            self.filled_mid_batch.append(self.slot_idx)
        drawn = super()._draw(items, count)
        self.pending += [(owner, dst) for dst in drawn]
        return drawn

    def _step_crashes(self, slot_idx, now):
        self.slot_idx = slot_idx
        super()._step_crashes(slot_idx, now)
        self._check("crashes", slot_idx)

    def _step_returns(self, slot_idx, now):
        for i in range(self.P):
            if self.back_at[i] <= now and any(t.owner == i and t.kind == psim.REPAIR_OUT for t in live_transfers(self)):
                self.returns_mid_repair.append(slot_idx)
        super()._step_returns(slot_idx, now)
        self._check("returns", slot_idx)

    def assisted_repair_check(self, slot_idx, now):
        super().assisted_repair_check(slot_idx, now)
        self._check("repair", slot_idx)

    def _backups(self, owner_idx, online):
        """The owner's backups in flight, and how many of them go to online
        targets, counted over the table's live rows."""
        dsts = [t.dst for t in live_transfers(self) if t.owner == owner_idx and t.kind == psim.BACKUP]
        return len(dsts), sum(1 for d in dsts if online[d])

    def _has_room(self, owner, in_flight):
        """Whether the owner's policy lets it open an upload: fewer than fixed n
        (or every other peer) holders and uploads, and no kept decision that it
        needs no more (the fixed policy makes none)."""
        cap = self.fixed_n if self.config.redundancy_policy == "fixed" else self.P - 1
        # a kept decision is checked against its holders in _check
        return self.needs[owner] != 0 and len(self._holders(owner)) + in_flight < cap

    def _screened(self, slot_idx):
        """The owners the task step visits, in index order: each present
        restoring owner, and each present owner in the trace, backing up or
        complete, whose policy has room and that has fewer than
        backup_parallelism backups to targets present and in the trace."""
        steady = [self.back_at[i] == math.inf and bool(self.cols[slot_idx, i]) for i in range(self.P)]
        visit = []
        for i in range(self.P):
            if self.back_at[i] == math.inf and self.phase[i] == psim.RESTORING:
                visit.append(i)
            elif steady[i] and self.phase[i] in (psim.BACKING_UP, psim.COMPLETE):
                in_flight, active = self._backups(i, steady)
                if active < self.config.backup_parallelism:
                    if self._has_room(i, in_flight):
                        visit.append(i)
                    elif self.config.redundancy_policy == "adaptive" and self.needs[i] != 0:
                        self.capped.append(slot_idx)
        return visit

    def maintenance_step(self, owners, slot_idx):
        self.steps.append(("batch", owners.tolist()))
        super().maintenance_step(owners, slot_idx)

    def _restore_step(self, owner, slot_idx):
        super()._restore_step(owner, slot_idx)
        self.steps.append(("lost" if self.phase[owner] == psim.LOST else "restore", [owner]))

    def _step_tasks(self, slot_idx):
        self.reserved = self.placed == psim.IN_FLIGHT
        expect, self.steps = self._screened(slot_idx), []
        super()._step_tasks(slot_idx)
        stepped = [owner for _, owners in self.steps for owner in owners]
        assert stepped == expect, f"slot {slot_idx}: the task step visited {stepped}, not {expect}"
        kinds = [kind for kind, _ in self.steps]
        assert all(a != "batch" or b != "batch" for a, b in zip(kinds, kinds[1:])), \
            f"slot {slot_idx}: two maintenance batches in a row"
        if "lost" in kinds and "batch" in kinds[kinds.index("lost"):]:
            self.lost_before_batch.append(slot_idx)
        # a skipped owner's placements and transfers are as they were, and
        # the online set only shrinks in the step, so one that cannot open an
        # upload now could not at its turn
        online = [self.back_at[i] == math.inf and (self.phase[i] == psim.RESTORING or bool(self.cols[slot_idx, i]))
                  for i in range(self.P)]
        for i in range(self.P):
            if i not in stepped and online[i] and self.phase[i] in (psim.BACKING_UP, psim.COMPLETE):
                in_flight, active = self._backups(i, online)
                assert not (self._has_room(i, in_flight) and active < self.config.backup_parallelism), \
                    f"slot {slot_idx}: the task step skipped peer {i}, which could open an upload"
        self.steps = None
        self._check_reservations_kept(slot_idx)
        self.reserved = None
        self._check("tasks", slot_idx)

    def _step_allocate(self, slot_idx):
        # a finished transfer never outlives its slot, so the rows the
        # allocation returns are all that are finished after it
        assert all(t.done < self.f - psim._EPS for t in live_transfers(self)), f"slot {slot_idx}"
        finished = super()._step_allocate(slot_idx)
        assert finished.tolist() == [t.row for t in live_transfers(self) if t.done >= self.f - psim._EPS], \
            f"slot {slot_idx}"
        self._check("allocate", slot_idx)
        return finished

    def _step_completions(self, slot_idx, finished):
        super()._step_completions(slot_idx, finished)
        self._check("completions", slot_idx)
        downloaded, buffered = self.downloaded.tolist(), self.buffered.tolist()
        if any(any(row[self.initial_width:]) for row in downloaded + buffered):
            self.widened.append(slot_idx)
        self.buffered_counts.append(sum(row.count(True) for row in buffered))

    def run(self):
        report = super().run()
        expect = [count * self.f for count in self.buffered_counts]
        assert self.buf_bytes.tolist() == expect, f"buffered bytes {self.buf_bytes.tolist()} != {expect}"
        return report


def report_csv_bytes(report):
    """The bytes of each report CSV, by file name."""
    with tempfile.TemporaryDirectory() as out:
        return {path.name: path.read_bytes() for path in rep.write_report_csvs(report, out)}


def index_checked_run(cdf_file, peers, slots, quota, seed, **overrides):
    """(simulation, report) of one index-checked run.  Every allocation call
    is checked against the link budgets and the max-min certificate, the
    report against the TTB and TTR lower bounds, and its CSVs against those
    of a plain rerun of the same (config, matrix)."""
    config = cfg(
        cdf_file,
        storage_quota=quota * int(UP_SLOT) // 4,  # quota in fragments
        delay_mean_days=1.0,
        repair_timeout_days=0.25,
        loss_cap=1e-6,
        seed=seed,
        **overrides,
    )
    matrix = trace.synth_trace(peers, slots, availability=(0.4, 0.9), seed=seed)
    with recorded_allocations() as calls:
        simulation = IndexCheckSimulation(config, matrix)
        report = simulation.run()
    up, down = link_budgets(simulation)
    for number, call in enumerate(calls):
        # lognormal budgets reach 1e9 bytes, where a sum is a few ulps off
        assert_call_within_link_budgets(simulation, call, rel=1e-12)
        assert maxmin_violations(call.specs, call.grants, up, down, psim._EPS) == [], f"call {number}"
    for r in report.peers:
        if math.isfinite(r.ttb) and math.isfinite(r.min_ttb):
            assert r.ttb >= r.min_ttb, f"peer {r.peer}: ttb {r.ttb} < min {r.min_ttb}"
        if math.isfinite(r.ttr) and math.isfinite(r.min_ttr):
            assert r.ttr >= r.min_ttr, f"peer {r.peer}: ttr {r.ttr} < min {r.min_ttr}"
    assert report_csv_bytes(Simulation(config, matrix).run()) == report_csv_bytes(report)
    return simulation, report


@given(
    peers=st.integers(8, 30),
    slots=st.integers(24, 72),
    quota=st.integers(1, 3),
    policy=st.sampled_from(["fixed", "adaptive"]),
    response=st.sampled_from(["immediate", "delayed", "delayed_assisted"]),
    lifetime=st.sampled_from([0.0, 0.5, 2.0]),
    spread=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_indexes_mirror_state_every_phase(flat_cdf_file, spread_cdf_file, peers, slots, quota, policy,
                                          response, lifetime, spread, seed):
    index_checked_run(spread_cdf_file if spread else flat_cdf_file, peers, slots, quota, seed,
                      redundancy_policy=policy, response=response, mean_lifetime_days=lifetime)


@pytest.mark.parametrize("policy", ["fixed", "adaptive"])
def test_indexes_mirror_state_through_loss_and_server_repair(spread_cdf_file, policy):
    _, report = index_checked_run(spread_cdf_file, 30, 96, 3, 9, redundancy_policy=policy,
                                  response="delayed_assisted", mean_lifetime_days=2.0)
    assert "lost" in {c.outcome for c in report.crashes}
    assert report.server_inbound.sum() > 0 and report.server_outbound.sum() > 0


def test_index_check_sees_flags_past_the_initial_width(flat_cdf_file):
    # crashes push fragment ids past the downloaded and buffered flags'
    # initial width, so restores and repair downloads set flags in the columns
    # that widening added
    simulation, _ = index_checked_run(flat_cdf_file, 20, 96, 3, 4, response="delayed_assisted",
                                      mean_lifetime_days=1.0)
    assert simulation.widened


def test_allocation_stream_is_pinned(spread_cdf_file):
    # The report goldens guard the order of the allocation rows only through
    # its effect on the grants' floats; this hashes every call of one run with
    # lost episodes and server traffic: its rows in order, budgets and grants.
    config = cfg(spread_cdf_file, storage_quota=3 * int(UP_SLOT) // 4, delay_mean_days=1.0, repair_timeout_days=0.25,
                 loss_cap=1e-6, seed=9, response="delayed_assisted", mean_lifetime_days=2.0)
    with recorded_allocations() as calls:
        report = Simulation(config, trace.synth_trace(30, 96, availability=(0.4, 0.9), seed=9)).run()
    assert report.server_inbound.sum() > 0 and report.server_outbound.sum() > 0
    assert "lost" in {c.outcome for c in report.crashes}
    assert allocation_digest(calls) == "8e2fd385da37eb761b2d12a78d607d393ebb000fe8afef669b27c9008b498474"


@pytest.mark.parametrize("policy", ["fixed", "adaptive"])
def test_indexes_mirror_state_through_a_return_mid_repair(flat_cdf_file, policy):
    # lognormal uplinks leave some repair uploads in flight when their owner
    # returns; the flat and spread tables never do in the random runs above
    simulation, _ = index_checked_run(flat_cdf_file, 60, 336, 3, 1, redundancy_policy=policy,
                                      response="delayed_assisted", mean_lifetime_days=2.0,
                                      bandwidth_source="lognormal")
    assert simulation.returns_mid_repair


def test_indexes_mirror_state_when_adaptive_owners_reach_every_peer(flat_cdf_file):
    # among 5 peers and with holders that crash within days, an adaptive owner
    # wants more holders than the 4 other peers
    simulation, _ = index_checked_run(flat_cdf_file, 5, 96, 40, 3, redundancy_policy="adaptive",
                                      mean_lifetime_days=2.0)
    assert simulation.capped


def test_index_check_sees_both_couplings_of_a_task_step(spread_cdf_file):
    # the owners of one upload batch meet at the quota, and a restore step
    # that marks its owner lost changes the online flags and the quota seen
    # by the batch after it; this run exercises both under the index checks
    simulation, _ = index_checked_run(spread_cdf_file, 30, 96, 3, 9, redundancy_policy="fixed",
                                      response="delayed_assisted", mean_lifetime_days=2.0)
    assert simulation.filled_mid_batch
    assert simulation.lost_before_batch


def test_differential_corpus_at_30_peers():
    # the 30-peer runs of tests/differential.py at the 3-day lifetime; the
    # whole corpus is checked with `python tests/differential.py --check`
    names = [name for name in differential.corpus() if name.startswith("30p-") and name.endswith("-life3")]
    assert len(names) == 12
    assert differential.moved(names) == []


# --------------------------------------------------------------- adaptive policy

def test_adaptive_places_more_than_k_under_churn(flat_cdf_file):
    config = cfg(
        flat_cdf_file,
        redundancy_policy="adaptive",
        mean_lifetime_days=60.0,
        seed=2,
    )
    matrix = trace.synth_trace(30, 24 * 14, availability=(0.5, 0.9), seed=11)
    report = psim.run(config, matrix)
    done = [r.redundancy for r in report.peers if not math.isnan(r.redundancy)]
    assert done
    assert report.avg_redundancy == pytest.approx(float(np.mean(done)))
    assert min(done) >= 1.0  # never complete below k fragments


def test_adaptive_no_churn_stops_at_k(flat_cdf_file):
    # With crashes disabled the loss rule is vacuous and eTTR is tiny, so the
    # policy stops at exactly k fragments.
    config = cfg(flat_cdf_file, redundancy_policy="adaptive")
    report = psim.run(config, always_on(8, 12))
    for r in report.peers:
        assert r.redundancy == 1.0


@pytest.mark.parametrize("parallel_downloads", [0, 2])
def test_cached_stopping_rule_matches_uncached(spread_cdf_file, parallel_downloads):
    # PublicRuleSimulation checks each decision, kept or not, against a fresh
    # holder_rule; this run keeps some and sees a holder loss reopen one.
    # With w_days=0 about half the decisions are above the loss floor, and
    # some of those are asked again before the owner's placements change.
    config = cfg(
        spread_cdf_file,
        redundancy_policy="adaptive",
        mean_lifetime_days=10.0,
        w_days=0.0,
        parallel_downloads=parallel_downloads,
        seed=4,
    )
    simulation = PublicRuleSimulation(config, trace.synth_trace(16, 24 * 7, availability=(0.5, 0.9), seed=3))
    report = simulation.run()
    assert report.crashes
    assert 0 < simulation.evaluations < simulation.decisions  # the kept decision answers some above the floor
    assert simulation.seen >= {"kept decision", "evaluated decision", "reopened by a holder loss"}, simulation.seen


def test_stopping_rule_follows_a_holder_swap(flat_cdf_file):
    # Swapping a holder for a nearly always offline one keeps the holder count
    # but pushes eTTR past the one-day cap, so the decision must be redone.
    # Each swap is a holder crash followed by a placement, as in a run.
    s = prepared_sim(flat_cdf_file, redundancy_policy="adaptive")
    s.avail[5] = 0.001
    place(s, 0, [1, 2, 3, 4])
    assert not s._needs_fragments(0)
    s.on_crash(4, now=0.0, slot_idx=0)
    assert s._needs_fragments(0)  # three holders, below k
    reserve_and_place(s, 0, 3, 5)
    assert s._needs_fragments(0)
    s.on_crash(5, now=0.0, slot_idx=0)
    assert s._needs_fragments(0)
    reserve_and_place(s, 0, 3, 4)
    assert not s._needs_fragments(0)


def scanned_floor(simulation):
    """The fewest holders, k to P - 1, whose loss risk at the smallest eTTR
    any owner reaches is at most the loss cap, by a scan; P if none."""
    least_ettr = simulation.o / simulation.downlink.max()
    for n in range(simulation.k, simulation.P):
        if loss_risk(n, simulation.k, least_ettr, simulation.thresholds) <= simulation.thresholds.loss_cap:
            return n
    return simulation.P


@pytest.mark.parametrize("overrides, w_days, expect", [
    (dict(mean_lifetime_days=20.0), None, None),
    (dict(mean_lifetime_days=60.0, loss_cap=1e-8), None, None),
    (dict(mean_lifetime_days=0.05), None, 40),  # every holder likely crashes within w: no count passes
    (dict(mean_lifetime_days=20.0, loss_cap=1.0), None, 4),
    (dict(mean_lifetime_days=math.inf), None, 4),
    (dict(mean_lifetime_days=0.0), None, 4),  # 0 also means no crashes
    (dict(mean_lifetime_days=20.0), math.inf, 40),
    (dict(mean_lifetime_days=20.0, loss_cap=1.0), math.inf, 4),
])
def test_loss_floor_is_the_scanned_floor(spread_cdf_file, overrides, w_days, expect):
    # k = 4 over 40 peers; SimConfig keeps w finite, so an infinite w is set on the thresholds
    s = Simulation(cfg(spread_cdf_file, redundancy_policy="adaptive", **overrides), always_on(40, 4))
    if w_days is not None:
        s.thresholds = replace(s.thresholds, w_days=w_days)
    assert s.n_floor is None  # found at the first decision that needs a tail, not at set-up
    assert s._below_floor(s.k - 1)
    assert s.n_floor is None
    s._below_floor(s.k)
    assert s.n_floor == scanned_floor(s)
    if expect is not None:
        assert s.n_floor == expect
    else:
        assert s.k < s.n_floor < s.P
    # below the floor the loss cap fails at every eTTR from the smallest up
    least_ettr = s.o / s.downlink.max()
    for n in range(s.k, s.n_floor):
        for ettr in (least_ettr, np.nextafter(least_ettr, math.inf), 2 * least_ettr, math.inf):
            assert not red.within_loss_cap(n, s.k, ettr, s.thresholds)
    assert [s._below_floor(n) for n in range(s.P)] == [n < s.n_floor for n in range(s.P)]


def test_loss_floor_stops_at_its_ceiling():
    thresholds = red.AdaptiveThresholds(w_days=math.inf)
    assert red.loss_floor(3, 10.0, thresholds, ceiling=9) == 9
    assert red.loss_floor(3, 10.0, thresholds, ceiling=2) == 3  # no count to search
    assert red.loss_floor(3, 10.0, red.AdaptiveThresholds(loss_cap=1.0, w_days=math.inf), ceiling=9) == 3


class PublicRuleSimulation(Simulation):
    """Checks the simulator's stopping rule, eTTR, risk test and restore
    parallelism against oracles.holder_rule and loss_risk on the owner's
    (availability, uplink) profiles, bit for bit, and records in seen which
    cases the run reached: every stopping and risk decision, and the owner's
    eTTR at each, whether or not the simulator needed that eTTR to decide.
    A stopping decision is answered from the kept one, evaluated by
    caps_met, or answered below the floor, as seen by counting the
    simulator's caps_met calls; one that turns from complete back to
    incomplete after a holder loss is reopened.  decisions counts the
    stopping decisions above the floor, evaluations the caps_met calls
    among them."""

    def __init__(self, config, matrix):
        super().__init__(config, matrix)
        self.seen = set()
        self.restoring = False
        self.last = {}  # owner -> (holders, needs) at its last decision
        self.decisions = self.evaluations = 0

    def _profiles(self, owner):
        return [(self.avail.item(h), self.uplink.item(h)) for h in sorted(placements_of(self, owner).values())]

    def _rule(self, owner, profiles):
        return holder_rule(self.o, self.downlink.item(owner), self.min_ttr.item(owner), profiles, self.k,
                           self.thresholds)

    def _needs_fragments(self, owner):
        kept = self.needs.item(owner) >= 0
        calls, caps_met = [], psim.caps_met
        psim.caps_met = lambda *args: calls.append(args) or caps_met(*args)
        try:
            needs = super()._needs_fragments(owner)
        finally:
            psim.caps_met = caps_met
        if self.config.redundancy_policy == psim.ADAPTIVE:
            self._ettr(owner)
            assert needs == (not self._rule(owner, self._profiles(owner))[2])
            holders = frozenset(placements_of(self, owner).values())
            below = self._below_floor(len(holders))
            assert len(calls) == (not kept and not below)  # only an unkept decision above the floor is evaluated
            self.decisions += not below
            self.evaluations += len(calls)
            self.seen.add("decision below the floor" if below else "kept decision" if kept else "evaluated decision")
            holders_before, needed = self.last.get(owner, (holders, True))
            if needs and not needed and holders < holders_before:
                self.seen.add("reopened by a holder loss")
            self.last[owner] = (holders, needs)
        return needs

    def _ettr(self, owner):
        ettr = super()._ettr(owner)
        profiles = self._profiles(owner)
        if len(profiles) < self.k:
            assert math.isnan(ettr)
            return ettr
        expected = self._rule(owner, profiles)[1]
        assert type(ettr) is float and ettr.hex() == expected.hex()
        rates, uplinks = [a * u for a, u in profiles], [u for _, u in profiles]
        self.seen.add(("even" if len(profiles) % 2 == 0 else "odd") + " holders")
        self.seen.update(case for case, reached in (
            ("infinite eTTR", math.isinf(ettr)),
            ("zero-availability holder", min(a for a, _ in profiles) == 0.0),
            ("tied rates", len(set(rates)) < len(rates)),
            ("tied uplinks", len(set(uplinks)) < len(uplinks))) if reached)
        return ettr

    def _at_risk(self, owner):
        at_risk = super()._at_risk(owner)
        ettr = self._ettr(owner)
        assert at_risk == (math.isnan(ettr) or loss_risk(len(self._profiles(owner)), self.k, ettr, self.thresholds)
                           > self.thresholds.loss_cap)
        self.seen.add("risk test")
        return at_risk

    def _parallel(self, owner, uplink):
        parallel = super()._parallel(owner, uplink)
        profiles = self._profiles(owner)
        assert sorted(uplink.tolist()) == sorted(u for _, u in profiles)
        assert type(parallel) is int and parallel == self._rule(owner, profiles)[0]
        self.seen.add(("pinned" if self.thresholds.parallel else "derived") + (" restore" if self.restoring else "")
                      + " l")
        return parallel

    def _restore_step(self, owner, slot_idx):
        self.restoring = True
        try:
            super()._restore_step(owner, slot_idx)
        finally:
            self.restoring = False


def public_rule_run(cdf_file, peers, slots, k, seed, zeroed=0, tie_avail=False, **overrides):
    """The PublicRuleSimulation of one adaptive run, after setting the
    availability of zeroed peers to 0 and, with tie_avail, rounding every
    availability to one decimal; the simulator reads avail at each use."""
    config = cfg(cdf_file, redundancy_policy="adaptive", object_size=k * (int(UP_SLOT) // 4),
                 storage_quota=3 * int(UP_SLOT), delay_mean_days=1.0, repair_timeout_days=0.25, seed=seed,
                 **overrides)
    simulation = PublicRuleSimulation(config, trace.synth_trace(peers, slots, availability=(0.3, 0.9), seed=seed))
    if tie_avail:
        simulation.avail[:] = np.round(simulation.avail, 1)
    simulation.avail[simulation.P - zeroed:] = 0.0
    simulation.run()
    return simulation


@pytest.fixture(scope="module")
def tied_cdf_file(tmp_path_factory):
    """Two-valued bandwidth table: nearly every uplink is 50 or 100 kB/s."""
    path = tmp_path_factory.mktemp("bw") / "tied.csv"
    path.write_text("0.0,50000\n0.5,50000\n0.5001,100000\n1.0,100000\n")
    return str(path)


@given(
    peers=st.integers(4, 10),
    slots=st.integers(24, 72),
    k=st.integers(1, 4),
    cdf=st.sampled_from(["flat", "tied", "spread"]),
    zeroed=st.integers(0, 3),
    tie_avail=st.booleans(),
    parallel=st.sampled_from([0, 1, 3]),
    loss_cap=st.sampled_from([1.0]) | st.floats(1e-8, 0.5),
    ttr_floor_days=st.sampled_from([0.0, math.inf]) | st.floats(0.0, 0.1),
    ttr_factor=st.floats(0.5, 4.0),
    w_days=st.floats(0.0, 3.0),
    lifetime=st.sampled_from([0.0, 1.0, 5.0]),
    response=st.sampled_from(["immediate", "delayed", "delayed_assisted"]),
    seed=st.integers(0, 2**16),
)
# derived l over a spread table, where the mean of the two middle uplinks of an even holder count decides l
@example(peers=8, slots=48, k=2, cdf="spread", zeroed=0, tie_avail=False, parallel=0, loss_cap=1e-2,
         ttr_floor_days=0.0, ttr_factor=2.0, w_days=1.0, lifetime=5.0, response="immediate", seed=0)
@settings(max_examples=60, deadline=None)
def test_simulator_rule_is_the_public_rule(flat_cdf_file, tied_cdf_file, spread_cdf_file, peers, slots, k, cdf,
                                           zeroed, tie_avail, parallel, loss_cap, ttr_floor_days, ttr_factor,
                                           w_days, lifetime, response, seed):
    cdf_file = {"flat": flat_cdf_file, "tied": tied_cdf_file, "spread": spread_cdf_file}[cdf]
    public_rule_run(cdf_file, peers, slots, k, seed, zeroed, tie_avail, parallel_downloads=parallel,
                    loss_cap=loss_cap, ttr_floor_days=ttr_floor_days, ttr_factor=ttr_factor, w_days=w_days,
                    mean_lifetime_days=lifetime, response=response)


def test_public_rule_check_reaches_every_case(flat_cdf_file, tied_cdf_file, spread_cdf_file):
    seen = set()
    for cdf_file, k, zeroed, tie_avail, overrides in (
            (spread_cdf_file, 3, 0, False, dict(mean_lifetime_days=2.0)),
            (spread_cdf_file, 2, 0, False, dict(mean_lifetime_days=2.0, response="delayed_assisted",
                                                parallel_downloads=2, loss_cap=1.0)),
            (tied_cdf_file, 3, 3, True, dict(mean_lifetime_days=2.0, ttr_floor_days=math.inf)),
            (flat_cdf_file, 1, 1, False, dict(mean_lifetime_days=5.0, loss_cap=1e-2)),
            (spread_cdf_file, 3, 0, False, dict(mean_lifetime_days=2.0, w_days=0.0))):
        seen |= public_rule_run(cdf_file, 10, 72, k, 11, zeroed, tie_avail, **overrides).seen
    assert seen >= {"odd holders", "even holders", "infinite eTTR", "zero-availability holder", "tied rates",
                    "tied uplinks", "pinned l", "derived l", "derived restore l", "risk test", "kept decision",
                    "evaluated decision", "decision below the floor", "reopened by a holder loss"}, seen


def test_holder_statistics_need_no_range_checks(tmp_path):
    # _ettr reads avail and uplink with no range checks; these are the
    # reasons it need not run them
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0.0,0\n1.0,0\n")
    config = cfg(str(zeros), redundancy_policy="adaptive", mean_lifetime_days=2.0, seed=2)
    uplink, downlink = psim.sample_bandwidth(config, 50, np.random.default_rng(1))
    assert uplink.min() >= 1e-6 and downlink.min() >= 4e-6  # sample_bandwidth clamps a zero uplink
    s = PublicRuleSimulation(config, make_matrix(["0" * 48, "1" * 48] + ["01" * 24] * 4))
    assert s.uplink.min() >= 1e-6
    assert s.avail.tolist() == [0.0, 1.0] + [0.5] * 4  # row means of the bits, in [0, 1]
    # on clamped uplinks and a zero availability, the simulator's rule still
    # agrees with the oracle
    place(s, 2, [0, 1, 3, 4, 5])
    assert s._needs_fragments(2) and math.isfinite(s._ettr(2)) and s._at_risk(2)
    assert s.seen >= {"odd holders", "zero-availability holder", "derived l", "risk test"}


@pytest.mark.parametrize("response", ["immediate", "delayed", "delayed_assisted"])
def test_run_calls_assisted_repair_check_once_per_slot(spread_cdf_file, response):
    # the benchmark takes per-slot latencies from the gaps between these calls
    config = cfg(spread_cdf_file, redundancy_policy="adaptive", response=response, mean_lifetime_days=1.0,
                 delay_mean_days=0.5, repair_timeout_days=0.25, seed=5)
    simulation = Simulation(config, trace.synth_trace(10, 48, availability=(0.4, 0.9), seed=5))
    calls, check = [], simulation.assisted_repair_check

    def stamped(slot_idx, now):
        calls.append((slot_idx, now))
        return check(slot_idx, now)

    simulation.assisted_repair_check = stamped
    report = simulation.run()
    assert report.crashes
    assert calls == [(t, t * simulation.slot) for t in range(simulation.T)]


# ------------------------------------------------------------ assisted repair

def test_assisted_repair_moves_fragment_multiples(flat_cdf_file):
    config = cfg(
        flat_cdf_file,
        response="delayed_assisted",
        delay_mean_days=80.0,
        repair_timeout_days=0.5,
        mean_lifetime_days=6.0,
        loss_cap=1e-6,
        redundancy_policy="fixed",
        seed=5,
    )
    matrix = always_on(12, 24 * 21)
    report = psim.run(config, matrix)
    f = float(config.fragment_size)
    assert report.server_inbound.sum() > 0.0  # repair downloads happened
    assert report.server_inbound.sum() % f == pytest.approx(0.0, abs=1e-6)
    assert report.server_outbound.sum() % f == pytest.approx(0.0, abs=1e-6)
    assert report.server_buffered.max() <= config.k * f * report.num_peers


def test_restore_falls_back_to_the_server_for_the_shortfall_only(flat_cdf_file):
    # Owner 0 keeps ids 0 and 1 on holders 1 and 2 and has ids 0-3 buffered.
    # Holder 2 is offline in slot 1, so a restore step fetches id 0 from holder
    # 1 and, for the k - 2 fragments its placements cannot supply, the lowest
    # buffered ids it is not fetching: 1 and 2, from the server, in that order.
    s = Simulation(cfg(flat_cdf_file, parallel_downloads=4), make_matrix(["11", "11", "10", "11", "11", "11"]))
    place(s, 0, [1, 2, 3, 4, 5])
    s.buffered[0, :4] = True
    for idx in (3, 4, 5, 0):
        s.on_crash(idx, now=SLOT, slot_idx=1)
    assert s.phase[0] == psim.RESTORING and placements_of(s, 0) == {0: 1, 1: 2}
    s._restore_step(0, 1)
    rows = [(t.src, t.frag, t.serial) for t in live_transfers(s) if t.kind == psim.RESTORE and t.owner == t.dst == 0]
    assert rows == [(1, 0, 1), (SERVER, 1, 2), (SERVER, 2, 3)]
    assert s.used == 3


class StaleBufferSimulation(Simulation):
    """Notes, after each completion step, every owner that has fragments
    buffered on the server but is no longer restoring."""

    def __init__(self, config, matrix):
        super().__init__(config, matrix)
        self.stale = []

    def _step_completions(self, slot_idx, finished):
        super()._step_completions(slot_idx, finished)
        stale = self.buffered.any(axis=1) & (self.phase != psim.RESTORING)
        self.stale += [(slot_idx, o) for o in np.flatnonzero(stale).tolist()]


@pytest.mark.xfail(strict=True, reason="_finish_restore cancels only restore transfers, so repair_in downloads "
                   "still in flight refill the server buffer of an owner that is done restoring; cancelling "
                   "them there changes the golden report and benchmark hashes")
def test_finished_restore_leaves_no_server_buffer(flat_cdf_file):
    config = cfg(
        flat_cdf_file,
        storage_quota=40 * int(UP_SLOT) // 4,  # 40 fragments
        mean_lifetime_days=10.0,
        response="delayed_assisted",
        delay_mean_days=2.0,
        repair_timeout_days=0.5,
        loss_cap=1e-6,
        bandwidth_source="lognormal",
    )
    simulation = StaleBufferSimulation(config, trace.synth_trace(60, 336, availability=(0.4, 0.9), seed=0))
    simulation.run()
    assert simulation.stale == []
