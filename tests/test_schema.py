"""JSON Schemas of the canonical `fhnrds verify` report.json and manifest.json,
and of the attractor.json of `fhnrds attractor`.

The schemas pin the typed shape of the files: the checks by name and in
report order, every verdict a JSON boolean, every fixture a JSON number keyed
by pullback seed, and the manifest's artifact list and kernel entry.  They
are validated against the canonical run that conftest's `canonical_verify`
makes once per pytest session, so no extra run is made; a one-entry
schedule's report and an attractor.json are validated on a small grid.
"""

import copy
import json
import os

from jsonschema import Draft202012Validator

from fhnrds import __version__, cli

NUMBER = {"type": "number"}
COUNT = {"type": "integer", "minimum": 0}
NONNEGATIVE = {"type": "number", "minimum": 0}

# the checks of report.json in report order, with their fields besides name and pass
CHECK_FIELDS = {
    "energy_inequality": {"seeds": COUNT, "worst_margin": NUMBER},
    "absorption": {"seeds": COUNT},
    "compact_interval_bounds": {"c_lp": NONNEGATIVE},
    "radius_temperedness": {"decay": NONNEGATIVE},
    "chebyshev_measure_bound": {
        "checked": COUNT,
        "violations": {"type": "array", "items": {
            "type": "object",
            "properties": {"t": NUMBER, "M": NUMBER, "seed": COUNT},
            "required": ["t", "M", "seed"],
            "additionalProperties": False,
        }},
    },
    "truncation_tails": {"eta": NONNEGATIVE},
    "bispatial_equality": {},
}

ARTIFACTS = ["defect_vs_t.csv", "energy_records.csv", "radius_temperedness.csv",
             "report.json", "tail_vs_M.csv"]


def closed(properties):
    """An object with exactly these properties."""
    return {"type": "object", "properties": properties, "required": list(properties),
            "additionalProperties": False}


def report_schema(seeds, degenerate=False):
    """The schema of a report over `seeds`.  With `degenerate`, that of a
    one-entry `schedules.t`: no Cauchy defect exists, so the bi-spatial
    check fails, flagged, and every final defect is null."""
    def by_seed(value):
        return closed({seed: value for seed in seeds})

    fields_by_check = dict(CHECK_FIELDS)
    defect = NONNEGATIVE
    if degenerate:
        fields_by_check["bispatial_equality"] = {"pass": {"const": False},
                                                 "flagged": {"const": "degenerate schedule"}}
        defect = {"type": "null"}
    checks = [closed({"name": {"const": name}, "pass": {"type": "boolean"}, **fields})
              for name, fields in fields_by_check.items()]
    return closed({
        "checks": {"type": "array", "prefixItems": checks, "items": False,
                   "minItems": len(checks)},
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "fixtures": closed({
            "M_star_by_seed": by_seed(NONNEGATIVE),
            "absorption_time_by_seed": by_seed(NONNEGATIVE),
            "c_cal": NONNEGATIVE,
            "c_cal_degenerate": {"type": "boolean"},
            "c_noise": NONNEGATIVE,
            "final_defect_by_seed": by_seed(closed({"l2": defect, "lp": defect})),
        }),
        "pass": {"type": "boolean"},
        "seed": COUNT,
        "tool_version": {"const": __version__},
    })


def manifest_schema(out, report, threads=1):
    return closed({
        "artifacts": {"const": [str(out / name) for name in ARTIFACTS]},
        "checks": closed({name: {"type": "boolean"} for name in CHECK_FIELDS}),
        "config_hash": {"const": report["config_hash"]},
        "error": {"type": "null"},
        # the loaded kernel object and the x86-64 level of its clones
        "kernel": closed({"object": {"type": "string", "pattern": r"^step-[0-9a-f]{20}\.so$"},
                          "isa": {"enum": [0, 3]}}),
        "seed": {"const": report["seed"]},
        "threads": {"const": threads},
        "tool_version": {"const": __version__},
        "wall_clock_seconds": NONNEGATIVE,
    })


def validator(schema):
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def test_canonical_report_and_manifest_match_their_schemas(cfg, canonical_verify):
    out, report = canonical_verify
    seeds = [str(cfg.seed + i) for i in range(cfg["experiment.seed_count"])]
    report_check = validator(report_schema(seeds))
    errors = [e.message for e in report_check.iter_errors(report)]
    assert not errors, errors
    manifest = json.loads((out / "manifest.json").read_text())
    manifest_check = validator(manifest_schema(out, report))
    errors = [e.message for e in manifest_check.iter_errors(manifest)]
    assert not errors, errors

    # each schema rejects a typed or ordered corruption of the real files
    def corrupted(doc, change):
        doc = copy.deepcopy(doc)
        change(doc)
        return doc

    for change in (
        lambda r: r.update({"pass": 1}),
        lambda r: r["checks"][2].update({"pass": "true"}),
        lambda r: r["checks"].reverse(),
        lambda r: r["checks"].pop(),
        lambda r: r["fixtures"]["absorption_time_by_seed"].update({seeds[0]: "8.0"}),
        lambda r: r["fixtures"]["final_defect_by_seed"].pop(seeds[-1]),
    ):
        assert not report_check.is_valid(corrupted(report, change))
    for change in (
        lambda m: m["artifacts"].pop(),
        lambda m: m["checks"].update({"absorption": None}),
        lambda m: m.update({"error": "blow-up"}),
        lambda m: m["kernel"].update({"isa": 4}),
        lambda m: m.update({"kernel": None}),
    ):
        assert not manifest_check.is_valid(corrupted(manifest, change))


def test_one_entry_schedule_report_matches_its_schema(tmp_path):
    # one schedule entry leaves no Cauchy defect: verify fails bi-spatial
    # equality, flagged, and still writes its report and manifest.  Ten
    # samples per seed give the 20 runs that `calibrate_constant` needs
    cfgp = tmp_path / "one.cfg"
    cfgp.write_text("grid.n = 64\ngrid.half_width = 8.0\nschedules.t = 8\n"
                    "experiment.seed_count = 2\nexperiment.energy_seed_count = 2\n"
                    "family.sample_count = 10\n")
    out = tmp_path / "one"
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][-1] == {"name": "bispatial_equality", "pass": False,
                                    "flagged": "degenerate schedule"}
    errors = [e.message for e in validator(report_schema(["42", "43"], True)).iter_errors(report)]
    assert not errors, errors
    assert not validator(report_schema(["42", "43"])).is_valid(report)
    manifest = json.loads((out / "manifest.json").read_text())
    # the run took the default worker count, one per CPU of the process, as
    # `cli.main` counts them (where there is no affinity mask, as on macOS,
    # every CPU of the machine)
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    errors = [e.message for e in validator(manifest_schema(out, report, threads)).iter_errors(manifest)]
    assert not errors, errors
    assert manifest["checks"]["bispatial_equality"] is False


def attractor_schema(seed, points):
    """The schema of attractor.json: the approximation's points, and the
    bi-spatial entry and fixtures that verify reports for the same seed."""
    def array(items, count):
        return {"type": "array", "items": items, "minItems": count, "maxItems": count}

    return closed({
        "tau": NUMBER,
        "seed": {"const": seed},
        "points": {"const": points},
        "provenance": array({"type": "array", "prefixItems": [NONNEGATIVE, COUNT],
                             "items": False, "minItems": 2}, points),
        "pairwise_l2": array(array(NONNEGATIVE, points), points),
        "pairwise_lp": array(array(NONNEGATIVE, points), points),
        "bispatial": closed({"name": {"const": "bispatial_equality"}, "pass": {"type": "boolean"}}),
        "fixtures": closed({"final_defect_by_seed": closed({
            str(seed): closed({"l2": NONNEGATIVE, "lp": NONNEGATIVE})})}),
    })


def test_attractor_json_matches_its_schema(tmp_path):
    cfgp = tmp_path / "small.cfg"
    cfgp.write_text("grid.n = 64\ngrid.half_width = 8.0\nfamily.sample_count = 3\n")
    out = tmp_path / "att"
    assert cli.main(["attractor", "--config", str(cfgp), "--out", str(out)]) == 0
    doc = json.loads((out / "attractor.json").read_text())
    check = validator(attractor_schema(42, 3))
    errors = [e.message for e in check.iter_errors(doc)]
    assert not errors, errors
    for change in (
        lambda d: d["bispatial"].update({"pass": "true"}),
        lambda d: d["bispatial"].update({"offending_pairs": []}),
        lambda d: d.update({"cauchy_defect_l2": None}),
        lambda d: d["fixtures"]["final_defect_by_seed"]["42"].update({"l2": None}),
        lambda d: d["provenance"].pop(),
        lambda d: d.pop("fixtures"),
    ):
        corrupted = copy.deepcopy(doc)
        change(corrupted)
        assert not check.is_valid(corrupted)
