"""The statistical test battery: calibrated nulls, detected violations.

Exchangeability is a statement about the array's law, so it is tested
across independent replicates: arrays as generated against arrays with a
fresh structure-preserving permutation applied, compared by an energy
permutation test.  Conditional structure is checked through randomized
probability integral transforms of each leaf through the empirical measure
of its siblings, read from the array alone.  Null scenarios should be
rejected at roughly the nominal rate, violations nearly always.
"""

from hexch import (
    cond_indep_test,
    conditional_iid_test,
    derive_seed,
    hexch_test,
    list_scenarios,
    make_source,
)

SEED = 1618


def rejection_rate(fn, n_runs=25):
    return sum(fn(t) for t in range(n_runs)), n_runs


print("== registry ==")
for spec in list_scenarios():
    print(f"  {spec.name:18s} [{spec.kind:9s}] {spec.summary}")

print()
print("== exchangeability: calibrated on nulls, powerful on the leak ==")
for name in ("path-mean", "product", "label-leak"):
    # hexch_test calls src.sample once per replicate sample, with all the
    # replicate seeds, and gets the arrays back stacked
    src = make_source(name, 2, 8)

    def one(t, src=src):
        return hexch_test(
            src.sample, 2, 8, n_reps=50, n_resamples=199,
            seed=derive_seed(SEED, src.name, t),
        ).reject

    k, n = rejection_rate(one)
    print(f"  {name:16s} rejected {k}/{n} times at level 0.05")

print()
print("== conditional structure ==")
for name, test in (
    ("uniform-leaf", conditional_iid_test),
    ("markov-leak", conditional_iid_test),
    ("product", cond_indep_test),
    ("sibling-coupled", cond_indep_test),
):
    src = make_source(name, 2, 16)

    def one(t, src=src, test=test):
        seed = derive_seed(SEED, src.name + test.__name__, t)
        # the null shuffles each parent's children: exact for any statistic
        # of the sibling values, which the test reads from the array alone
        return test(src.sample(seed), 2, 16, seed=seed).reject

    k, n = rejection_rate(one)
    print(f"  {name:16s} {test.__name__:21s} rejected {k}/{n}")

