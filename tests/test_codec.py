"""The config codec: ``config_from_json`` inverts ``config_to_json``, takes
every default, and rejects a malformed key by name."""

import json
import math

import pytest

from molbo.bench import BENCH_METHODS, method_config
from molbo.kernel import FingerprintTanimoto, OTExpSum, SumKernel
from molbo.objectives import (
    DEFAULT_CONTRIBUTIONS,
    DEFAULT_QED_BANDS,
    Band,
    Objective,
    ObjectiveKind,
)
from molbo.optimizer import (
    Method,
    RunConfig,
    config_from_json,
    config_to_json,
    kernel_family_from_json,
    run,
)
from molbo.synthesis import CONDITION_LIBRARY, Condition, OracleKind
from test_bench import base_config
from test_optimizer import HEAVY_25, JOIN_POOL, join_config

TEMPLATE_POOL = ("CC(=O)O", "CCO", "CN", "CCBr", "CC=O", "OCCO", "NCCN", "CCCl", "CO",
                 "OC(=O)CCC(=O)O")

#: Every kernel family, at its defaults and not; integer betas stay
#: integers, as a config file gives them.
FAMILIES = [
    FingerprintTanimoto(),
    FingerprintTanimoto(n_bits=512, max_path_len=3),
    OTExpSum(),
    OTExpSum((0.5, 2.0, 0.0, 7.25)),
    OTExpSum((1, 2, 1, 1)),
    SumKernel(),
    SumKernel(alpha1=0.25, alpha2=3.5, fingerprint=FingerprintTanimoto(1024, 5),
              ot=OTExpSum((0.1, 0.2, 0.3, 0.4))),
]

#: An objective off every default: an integer and a float contribution
#: replaced, one band replaced.  (Tables are read over the defaults, so a
#: table that drops an element does not read back.)
LOGP_7 = Objective(
    kind=ObjectiveKind.LOGP, target=7,
    contributions={**DEFAULT_CONTRIBUTIONS, "C": 1, "N": -0.5},
    qed_bands={**DEFAULT_QED_BANDS, "mass": Band(0.0, 10.0, 20.0, 30.0, floor=0.1)},
)


def configs_built_in_tests():
    """The ``RunConfig``s the other test modules build: through their
    helpers where they have one, copied where they build one inline."""
    configs = [base_config(), base_config(budget=2, steps=3)]
    configs += [method_config(base_config(), m, 5) for m in BENCH_METHODS]
    configs += [
        join_config(),
        join_config(budget_t=0, method=Method.RAND),
        join_config(initial_pool=TEMPLATE_POOL, objective=Objective(kind=ObjectiveKind.QED),
                    budget_t=30, seed=101000, method=Method.RAND,
                    oracle=OracleKind.TEMPLATE, conditions=CONDITION_LIBRARY,
                    explorer_steps=20),
        join_config(method=Method.CHEMBO, oracle=OracleKind.TEMPLATE, budget_t=3,
                    explorer_steps=2),
    ]
    configs += [join_config(objective=HEAVY_25, kernel_family=family, budget_t=4, seed=11,
                            explorer_steps=20)
                for family in (FingerprintTanimoto(), SumKernel(), OTExpSum())]
    # test_fingerprint, test_acceptance, test_invariants and test_otdist
    join = dict(method=Method.CHEMBO, oracle=OracleKind.JOIN, conditions=(Condition("join"),))
    configs += [
        RunConfig(initial_pool=("C", "N", "O", "CC", "CO", "CCO"),
                  objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=12),
                  kernel_family=FingerprintTanimoto(), budget_t=4, seed=11, explorer_steps=6,
                  **join),
        RunConfig(initial_pool=JOIN_POOL,
                  objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=12),
                  kernel_family=OTExpSum(), budget_t=5, seed=2, explorer_steps=10, **join),
        RunConfig(initial_pool=JOIN_POOL, objective=HEAVY_25, kernel_family=OTExpSum(),
                  budget_t=30, seed=0, explorer_steps=20, **join),
        RunConfig(initial_pool=("C", "N", "O", "CC", "CO", "CN"),
                  objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=6),
                  kernel_family=OTExpSum(), budget_t=3, seed=4, explorer_steps=5, **join),
        RunConfig(initial_pool=JOIN_POOL, objective=HEAVY_25, kernel_family=OTExpSum(),
                  budget_t=5, seed=101000, oracle=OracleKind.JOIN,
                  conditions=(Condition("join"),)),
    ]
    return configs


def every_config():
    configs = [join_config(kernel_family=family, objective=objective, method=method,
                           oracle=oracle, conditions=conditions)
               for family in FAMILIES
               for objective in (HEAVY_25, LOGP_7)
               for method in Method
               for oracle, conditions in ((OracleKind.JOIN, (Condition("join"),)),
                                          (OracleKind.TEMPLATE, CONDITION_LIBRARY))]
    return configs + configs_built_in_tests()


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestInverse:
    @pytest.mark.parametrize("cfg", every_config())
    def test_round_trip(self, cfg):
        header = config_to_json(cfg)
        assert config_from_json(header) == cfg
        assert config_from_json(json.loads(dumps(header))) == cfg
        assert dumps(config_to_json(config_from_json(json.loads(dumps(header))))) == \
            dumps(header)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kernel_reader_inverts_each_family(self, family):
        assert kernel_family_from_json(config_to_json(join_config(kernel_family=family))
                                       ["kernel"]) == family

    def test_logged_header_reads_back(self, tmp_path):
        path = tmp_path / "run.jsonl"
        cfg = join_config(objective=LOGP_7, kernel_family=FAMILIES[-1], budget_t=1)
        run(cfg, log_path=path)
        line = path.read_text().splitlines()[0]
        header = json.loads(line)
        assert config_from_json(header["config"]) == cfg
        header["config"] = config_to_json(config_from_json(header["config"]))
        assert dumps(header) == line


class TestDefaults:
    POOL = ["C", "N", "O"]

    def test_only_pool_and_seed_are_required(self):
        assert config_from_json({"initial_pool": self.POOL, "seed": 1}) == RunConfig(
            initial_pool=tuple(self.POOL), objective=Objective(kind=ObjectiveKind.QED),
            kernel_family=OTExpSum(), budget_t=10, seed=1, method=Method.CHEMBO,
            oracle=OracleKind.TEMPLATE, conditions=CONDITION_LIBRARY, explorer_steps=20)

    @pytest.mark.parametrize("conditions", [None, []])
    def test_join_oracle_defaults_to_join_condition(self, conditions):
        header = {"initial_pool": self.POOL, "seed": 1, "oracle": "join"}
        if conditions is not None:
            header["conditions"] = conditions
        assert config_from_json(header).conditions == (Condition("join"),)

    def test_partial_tables_merge_over_defaults(self):
        cfg = config_from_json({
            "initial_pool": self.POOL, "seed": 1,
            "objective": {"contribution_table": {"C": 1},
                          "qed_bands": {"mass": {"a": 0, "b": 10, "c": 20, "d": 30}}},
        })
        assert cfg.objective.contributions == {**DEFAULT_CONTRIBUTIONS, "C": 1}
        assert type(cfg.objective.contributions["C"]) is int
        assert cfg.objective.qed_bands == {**DEFAULT_QED_BANDS,
                                           "mass": Band(0.0, 10.0, 20.0, 30.0, floor=0.05)}
        assert all(type(v) is float for v in vars(cfg.objective.qed_bands["mass"]).values())

    def test_kernel_keys_take_kernel_defaults(self):
        spec = kernel_family_from_json({"family": "sum", "alpha1": 2, "n_bits": 256})
        assert spec == SumKernel(alpha1=2.0, fingerprint=FingerprintTanimoto(n_bits=256))
        assert type(spec.alpha1) is float


def with_entry(path, value):
    """A valid header with the key at ``path`` set to ``value``."""
    header = config_to_json(join_config())
    *outer, key = path
    target = header
    for name in outer:
        target = target[name]
    target[key] = value
    return header


class TestMalformed:
    @pytest.mark.parametrize("header,named", [
        (with_entry(["budget_t"], True), ["'budget_t'"]),
        (with_entry(["kernel", "family"], "rbf"), ["'family'"]),
        (with_entry(["kernel", "betas"], [1.0, 1.0, 1.0]), ["'betas'"]),
        (with_entry(["objective", "qed_bands", "mass"], {"a": 0, "b": 1, "d": 3}),
         ["'qed_bands'", "'mass'", "'c'"]),
        (with_entry(["initial_pool"], "CCO"), ["'initial_pool'"]),
        (with_entry(["initial_pool"], ["C", 1]), ["'initial_pool'"]),
        (with_entry(["objective"], "qed"), ["'objective'"]),
        (with_entry(["seed"], 1.5), ["'seed'"]),
        (with_entry(["kernel", "n_bits"], "2048"), ["'n_bits'"]),
        (with_entry(["method"], "bo"), ["'method'"]),
        (with_entry(["objective", "contribution_table"], {"C": None}),
         ["'contribution_table'"]),
        # alpha1 is unused by the ot family, and still read
        (with_entry(["kernel", "alpha1"], 20.0), ["alphas", "'alpha1'"]),
        (with_entry(["kernel", "alpha2"], -0.5), ["'alpha2'"]),
        (with_entry(["kernel", "n_bits"], 100), ["'n_bits'", "power of two"]),
        (with_entry(["kernel", "max_path_len"], 11), ["'max_path_len'", "1..10"]),
        ({"seed": 1}, ["'initial_pool'"]),
        ({"initial_pool": ["C", "N"]}, ["'seed'"]),
        (with_entry(["kernel", "betas"], [1, 2, 3, math.nan]), ["'betas'", "finite"]),
        (with_entry(["kernel", "betas"], [1, 2, math.inf, 3]), ["'betas'", "finite"]),
        (with_entry(["kernel", "betas"], [-math.inf, 1, 2, 3]), ["'betas'", "finite"]),
        (with_entry(["objective", "qed_bands", "mass"],
                    {"a": 0, "b": 1, "c": 2, "d": 3, "floor": 4}),
         ["'qed_bands'", "'mass'", "floor"]),
        (with_entry(["objective", "qed_bands", "logp"],
                    {"a": 0, "b": 1, "c": 2, "d": 3, "floor": 0}),
         ["'qed_bands'", "'logp'", "floor"]),
        (with_entry(["objective", "qed_bands", "donors"], {"a": 2, "b": 1, "c": 3, "d": 4}),
         ["'qed_bands'", "'donors'", "a <= b <= c <= d"]),
        (with_entry(["objective", "qed_bands", "mass"], {"a": math.nan, "b": 1, "c": 2, "d": 3}),
         ["'qed_bands'", "'mass'", "finite"]),
        (with_entry(["objective", "contribution_table"], {"C": math.nan}),
         ["'contribution_table'", "'C'", "finite"]),
        (with_entry(["objective", "contribution_table"], {"O": -math.inf}),
         ["'contribution_table'", "'O'", "finite"]),
        (with_entry(["seed"], -5), ["seed must be nonnegative"]),
    ], ids=["budget-bool", "family", "three-betas", "band-without-c", "pool-string",
            "pool-not-strings", "objective-string", "seed-float", "n-bits-string",
            "method", "contribution-null", "alpha-out-of-range", "alpha2-out-of-range",
            "n-bits-out-of-range", "max-path-len-out-of-range", "no-pool", "no-seed",
            "beta-nan", "beta-inf", "beta-minus-inf", "band-floor-above-one",
            "band-floor-zero", "band-unordered", "band-nan", "contribution-nan",
            "contribution-minus-inf", "seed-negative"])
    def test_rejected_naming_the_key(self, header, named):
        with pytest.raises(ValueError) as err:
            config_from_json(header)
        for key in named:
            assert key in str(err.value)
