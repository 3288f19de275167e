"""Extension — detection without attribution.

The paper claims rate-based network defences cannot handle DOPE.  This
bench gives the network side its best shot: OnlineDetect's streaming
extractor sees every admitted arrival through the
:class:`~repro.detect.DynamicSuspectPolicy` ingress tap, so its
per-source ``rate_rps`` windows show exactly what a rate defence could
attribute, next to DDoS-deflate's verdict.

Result: the DOPE onset is plain in the aggregate — the summed
per-source rate more than quadruples within one window time constant —
but no single agent comes near the firewall's per-source threshold, so
deflate bans nobody; only the detector's behavioural features pin the
flood on its 40 agents.  The classic two-agent flood is attributable by
rate alone, and deflate bans both agents.  DOPE's evasion is the
attribution gap, not stealth.
"""

from repro import DataCenterSimulation, OnlineDetectScheme, SimulationConfig
from repro.analysis import print_table
from repro.workloads import dope_mix

ATTACK = dope_mix()
DURATION = 180.0
ATTACK_START = 90.0
#: One extractor time constant (``tau_s``) after the onset.
ONSET_READ = ATTACK_START + 10.0


def run(num_agents, rate_rps=250.0, closed_loop=True):
    """Run one attack; sample the extractor's per-source rates each second."""
    scheme = OnlineDetectScheme()
    sim = DataCenterSimulation(SimulationConfig(seed=6), scheme=scheme)
    sim.add_normal_traffic(rate_rps=40)
    flood = sim.add_flood(
        mix=ATTACK,
        rate_rps=rate_rps,
        num_agents=num_agents,
        start_s=ATTACK_START,
        closed_loop=closed_loop,
    )
    aggregate_rps = {}
    fastest_agent_rps = {}
    while sim.now < DURATION:
        sim.run(1.0)
        extractor = scheme.extractor
        rates = {
            source: extractor.features(source, sim.now).rate_rps
            for source in extractor.sources()
        }
        t = round(sim.now)
        aggregate_rps[t] = sum(rates.values())
        fastest_agent_rps[t] = max(
            (r for s, r in rates.items() if flood.source_pool.contains(s)),
            default=0.0,
        )
    return sim, scheme, flood, aggregate_rps, fastest_agent_rps


def test_ext_detection_gap(benchmark):
    runs = benchmark.pedantic(
        lambda: {
            "DOPE (40 agents)": run(40),
            # A classic blatant flood: open-loop packet blasting from
            # two sources at 200 req/s each.
            "classic flood (2 agents)": run(2, rate_rps=400.0, closed_loop=False),
        },
        rounds=1,
        iterations=1,
    )

    rows = []
    for name, (sim, scheme, flood, aggregate, fastest) in runs.items():
        rows.append(
            (
                name,
                aggregate[ATTACK_START],
                aggregate[ONSET_READ],
                fastest[ONSET_READ],
                max(fastest.values()),
                sim.firewall.stats.bans,
                sum(flood.source_pool.contains(s) for s in scheme.suspect_sources),
            )
        )
    print_table(
        [
            "attack",
            "sum rps @90",
            "sum rps @100",
            "fastest agent @100",
            "fastest agent peak",
            "deflate bans",
            "agents quarantined",
        ],
        rows,
        title="Extension: aggregate visibility vs per-source attribution",
    )

    threshold_rps = SimulationConfig().firewall_threshold_rps
    dope_sim, dope_scheme, dope_flood, dope_sum, dope_fastest = runs[
        "DOPE (40 agents)"
    ]
    # The onset is visible in the aggregate (41 -> 189 rps by t=100)...
    assert dope_sum[ONSET_READ] > 4.0 * dope_sum[ATTACK_START]
    # ...but no agent is attributable by rate: the fastest runs at
    # ~3.7 rps at t=100 and never nears deflate's threshold.
    assert dope_fastest[ONSET_READ] < 5.0
    assert max(dope_fastest.values()) < 0.1 * threshold_rps
    assert dope_sim.firewall.stats.bans == 0
    # The behavioural features quarantine exactly the 40 agents.
    assert set(dope_scheme.suspect_sources) == set(dope_flood.source_pool.ids)

    classic_sim, _, classic_flood, _, classic_fastest = runs[
        "classic flood (2 agents)"
    ]
    # The classic flood peaks at ~127 rps per agent, and deflate bans
    # both agents.
    assert max(classic_fastest.values()) > 100.0
    assert classic_sim.firewall.banned_sources() == set(
        classic_flood.source_pool.ids
    )
