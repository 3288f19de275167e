"""Byte-identical reproducibility of same-seed simulation runs.

The static-analysis suite (REP001) bans unseeded randomness and
wall-clock reads precisely so that this holds: two simulations built
from the same :class:`SimulationConfig` seed must produce *identical*
exported artifacts, byte for byte — not merely statistically similar
ones.  This is the regression test that backs that guarantee.
"""

import io
import json

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    OnlineDetectScheme,
    SimulationConfig,
)
from repro.analysis import DopeRegionAnalyzer
from repro.analysis.export import detector_summary, meter_to_csv, records_to_csv
from repro.faults import run_chaos, validate_chaos_payload
from repro.obs import Recorder
from repro.workloads import COLLA_FILT, K_MEANS, TEXT_CONT, uniform_mix

ATTACK = uniform_mix((COLLA_FILT, K_MEANS))


def run_and_export(seed, scheme_factory=CappingScheme, duration_s=90.0):
    """Run one attack scenario and serialise everything observable."""
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed),
        scheme=scheme_factory(),
    )
    sim.add_normal_traffic(rate_rps=40)
    sim.add_flood(mix=ATTACK, rate_rps=200, num_agents=10, start_s=15)
    sim.run(duration_s)

    records = io.StringIO()
    records_to_csv(sim.collector.records, records)
    meter = io.StringIO()
    meter_to_csv(sim.meter, meter)
    return records.getvalue().encode() + b"\x00" + meter.getvalue().encode()


def test_same_seed_runs_are_byte_identical():
    assert run_and_export(seed=11) == run_and_export(seed=11)


def test_same_seed_byte_identical_with_battery_scheme():
    a = run_and_export(seed=5, scheme_factory=AntiDopeScheme)
    b = run_and_export(seed=5, scheme_factory=AntiDopeScheme)
    assert a == b


def test_different_seeds_diverge():
    # A sanity guard on the test itself: if the export ignored the
    # stochastic state entirely, the identity checks above would be
    # vacuous.
    assert run_and_export(seed=11) != run_and_export(seed=12)


# ----------------------------------------------------------------------
# Parallel execution must not perturb a single byte of any export.
# ----------------------------------------------------------------------

# The Fig 11 region-grid axes, shortened (window and rate count) so the
# equivalence check runs the grid twice inside a unit-test budget.
REGION_TYPES = (COLLA_FILT, K_MEANS, TEXT_CONT)
REGION_RATES = (60.0, 250.0)
REGION_SEED = 5


def test_region_sweep_parallel_cells_byte_identical_to_serial():
    """DopeRegionAnalyzer.sweep: merged parallel output == serial output.

    The runner's observation counters must obey the same equivalence:
    cells/executed/retries/errors tallies are deterministic output, so
    fanning out over 4 processes may not change a single count (wall
    timings, by design, may and do differ).
    """
    analyzer = DopeRegionAnalyzer(
        config=SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=REGION_SEED),
        window_s=20.0,
        num_agents=20,
    )
    rec_serial = Recorder()
    rec_parallel = Recorder()
    serial = analyzer.sweep(REGION_TYPES, REGION_RATES, workers=1, recorder=rec_serial)
    parallel = analyzer.sweep(
        REGION_TYPES, REGION_RATES, workers=4, recorder=rec_parallel
    )
    assert repr(parallel.as_rows()) == repr(serial.as_rows())
    assert [c.zone for c in parallel.cells] == [c.zone for c in serial.cells]
    assert rec_parallel.counters.as_dict() == rec_serial.counters.as_dict()
    assert rec_serial.counters.get("runner.cells_total") == 6


def test_online_detect_region_sweep_parallel_byte_identical_to_serial():
    """The detector-armed fig11 sweep is worker-count invariant too.

    OnlineDetect adds per-slot scoring and a dynamic suspect set to
    every probe; none of it may read anything a process boundary could
    perturb, so the flagged/zone columns must survive a 4-way fan-out
    byte-for-byte.
    """
    analyzer = DopeRegionAnalyzer(
        config=SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=REGION_SEED),
        window_s=20.0,
        num_agents=20,
        scheme="online-detect",
    )
    serial = analyzer.sweep(REGION_TYPES, REGION_RATES, workers=1)
    parallel = analyzer.sweep(REGION_TYPES, REGION_RATES, workers=4)
    assert repr(parallel.as_rows()) == repr(serial.as_rows())
    assert [c.detector_flagged for c in parallel.cells] == [
        c.detector_flagged for c in serial.cells
    ]


def test_online_detect_scalar_batched_byte_identical():
    """OnlineDetect under the batched engine == scalar, byte for byte.

    The detector taps arrivals inside the forwarding policy and scores
    on control-slot boundaries; both paths must be execution-mode
    invariant, like every other scheme.
    """

    def run(mode):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=7),
            scheme=OnlineDetectScheme(),
            engine_mode=mode,
        )
        sim.add_normal_traffic(rate_rps=40)
        sim.add_flood(mix=ATTACK, rate_rps=200, num_agents=10, start_s=15)
        sim.run(60.0)
        records = io.StringIO()
        records_to_csv(sim.collector.records, records)
        meter = io.StringIO()
        meter_to_csv(sim.meter, meter)
        report = json.dumps(
            detector_summary(sim.scheme), sort_keys=True, allow_nan=False
        )
        return (
            records.getvalue().encode()
            + b"\x00"
            + meter.getvalue().encode()
            + b"\x00"
            + report.encode()
        )

    assert run("scalar") == run("batched")


def test_prediction_region_sweep_parallel_byte_identical_to_serial():
    """The prediction-armed fig11 sweep is worker-count invariant too.

    The predictor adds a per-slot quantile/floor update and an
    admission-filter refill retune to every probe; none of it may read
    anything a process boundary could perturb, so the zone columns must
    survive a 4-way fan-out byte-for-byte.
    """
    analyzer = DopeRegionAnalyzer(
        config=SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=REGION_SEED),
        window_s=20.0,
        num_agents=20,
        scheme="prediction",
    )
    serial = analyzer.sweep(REGION_TYPES, REGION_RATES, workers=1)
    parallel = analyzer.sweep(REGION_TYPES, REGION_RATES, workers=4)
    assert repr(parallel.as_rows()) == repr(serial.as_rows())
    assert [c.zone for c in parallel.cells] == [c.zone for c in serial.cells]


def test_prediction_scalar_batched_byte_identical():
    """Prediction under the batched engine == scalar, byte for byte.

    The predictor observes measured power on control-slot boundaries
    and retunes the admission filter's refill rate mid-run; both paths
    must be execution-mode invariant, like every other scheme — down to
    the JSON-serialised predictor report.
    """
    from repro import PredictionScheme

    def run(mode):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=7),
            scheme=PredictionScheme(),
            engine_mode=mode,
        )
        sim.add_normal_traffic(rate_rps=40)
        sim.add_flood(mix=ATTACK, rate_rps=200, num_agents=10, start_s=15)
        sim.run(60.0)
        records = io.StringIO()
        records_to_csv(sim.collector.records, records)
        meter = io.StringIO()
        meter_to_csv(sim.meter, meter)
        report = json.dumps(
            detector_summary(sim.scheme), sort_keys=True, allow_nan=False
        )
        return (
            records.getvalue().encode()
            + b"\x00"
            + meter.getvalue().encode()
            + b"\x00"
            + report.encode()
        )

    assert run("scalar") == run("batched")


def test_chaos_parallel_cells_byte_identical_to_serial():
    """run_chaos: the faulted scheme matrix is worker-count invariant.

    Fault schedules, injected-fault tallies, and fault-vs-policy drop
    attribution are deterministic output, so the whole payload — and the
    merged runner counters — must be byte-identical between a serial run
    and a 4-process fan-out.
    """
    rec_serial = Recorder()
    rec_parallel = Recorder()
    serial = run_chaos(mode="smoke", seed=5, workers=1, recorder=rec_serial)
    parallel = run_chaos(mode="smoke", seed=5, workers=4, recorder=rec_parallel)
    dump = lambda payload: json.dumps(  # noqa: E731
        payload, sort_keys=True, allow_nan=False
    ).encode()
    assert dump(parallel) == dump(serial)
    assert rec_parallel.counters.as_dict() == rec_serial.counters.as_dict()
    assert validate_chaos_payload(serial) == []
    cell = serial["cells"][0]
    assert cell["faults_injected"]["server_crash"] >= 1
