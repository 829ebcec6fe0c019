"""Practical stability: hypotheses, comparison transfer, direct sampling.

Run:  python demos/06_stability_verdict.py
"""

import json

import fuzzyts as f
from fuzzyts import catalog
from fuzzyts.hybrid import StepMode
from fuzzyts.stability import StabilityQuery, check_practical_stability

grid = f.AlphaGrid.uniform(11)

# Question: do initial states within distance lambda of zero keep the
# trajectory within distance A for the whole horizon?

# 1) A contracting system: yes, and every layer of evidence agrees.
bundle = catalog.make_crisp_contraction(grid, horizon=10.0)
query = StabilityQuery(lam=0.5, A=1.0, B=0.1, T0=4.0, rho=100.0,
                       count=100, seed=1, family="crisp")
verdict = check_practical_stability(bundle.system, bundle.comparison,
                                    bundle.lyapunov, bundle.kpair, query, 10.0)
print("contracting system:")
for prop, outcome in verdict.properties.items():
    print(f"  {prop:<22} {outcome['status']}")
print("  hypothesis layer passed:", verdict.hypothesis_report["all_passed"])
print("  transferred conclusion :", verdict.implied_conclusions["practically_stable"])

# 2) The expansive catalog system: uncertainty grows by x1.5 per step, so
# A = 2 is overrun; the checker reports a concrete witness.
bundle = catalog.make_example_3_9(grid, horizon=10.0)
query = StabilityQuery(lam=1.0, A=2.0, rho=100.0, count=100, seed=1, family="triangular")
verdict = check_practical_stability(bundle.system, bundle.comparison,
                                    bundle.lyapunov, bundle.kpair, query, 10.0,
                                    modes=(StepMode.EXPANSIVE,))
witness = verdict.properties["practically_stable"]["witness"]
print("\nexpanding system:")
print("  practically_stable:", verdict.properties["practically_stable"]["status"])
print(f"  witness: t={witness['t']}, distance={witness['value']} >= A={witness['bound']}")
print("  comparison system stable:", verdict.comparison_verdict["practically_stable"])

# The whole verdict serializes deterministically for archiving:
blob = json.dumps(verdict.to_dict(), indent=2, sort_keys=True)
print("\nverdict JSON:", len(blob), "bytes; seeds and config echoed inside")
