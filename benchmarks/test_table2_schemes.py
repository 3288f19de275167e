"""Table 2 — the evaluated power-management schemes.

Instantiates every scheme against the paper rack and reports its
configuration hooks (NLB policy / admission filter / battery use),
verifying each scheme exposes exactly the mechanism Table 2 describes.
"""

from repro import (
    AntiDopeScheme,
    CappingScheme,
    DataCenterSimulation,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis import print_table


def test_table2_scheme_matrix(benchmark):
    def build():
        rows = []
        for factory, feature in (
            (CappingScheme, "performance scaling only"),
            (ShavingScheme, "UPS based peak shaving"),
            (TokenScheme, "power-based token bucket"),
            (AntiDopeScheme, "request-aware (PDF + RPM)"),
        ):
            sim = DataCenterSimulation(SimulationConfig(), scheme=factory())
            scheme = sim.scheme
            rows.append(
                (
                    scheme.name,
                    feature,
                    scheme.forwarding_policy() is not None,
                    scheme.admission_filter() is not None,
                    isinstance(scheme, (ShavingScheme, AntiDopeScheme)),
                )
            )
        return rows

    rows = benchmark(build)
    print_table(
        ["scheme", "feature", "custom NLB policy", "NLB filter", "uses battery"],
        rows,
        title="Table 2: evaluated power management schemes",
    )
    by_name = {r[0]: r for r in rows}
    assert by_name["capping"][2:5] == (False, False, False)
    assert by_name["shaving"][2:5] == (False, False, True)
    assert by_name["token"][2:5] == (False, True, False)
    assert by_name["anti-dope"][2:5] == (True, False, True)
