"""The command-line pipeline and its config on the planted corpus."""

import json

import pytest

import synthetic_corpus as sc
from recexplain import cli
from recexplain.config import ConfigError, PipelineConfig

HIDDEN = 32


def write_config(path, data, workdir, **sections):
    doc = {
        "paths": {
            "reviews": str(data / "reviews.jsonl"),
            "lexicon": str(data / "lexicon.txt"),
            "attribute_vectors": str(data / "word_vectors.txt"),
            "sentence_vectors": str(data / "sentence_vectors.txt"),
            "workdir": str(workdir),
        },
        "corpus": {"rating_threshold": 10, "min_activity": 2},
        "model": {"hidden": HIDDEN},
        "training": {"epochs": 3},
        "seed": 0,
    }
    for name, values in sections.items():
        doc.setdefault(name, {}).update(values)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Planted inputs and a workdir after preprocess -> train -> select;
    returns (config path, workdir, exit codes per stage).
    """
    root = tmp_path_factory.mktemp("planted")
    data, workdir = root / "data", root / "work"
    sc.write_inputs(data, seed=0)
    config = write_config(root / "config.json", data, workdir)
    codes = {"preprocess": cli.main(["preprocess", "--config", str(config)])}
    sc.write_vector_files(workdir / "corpus", data, hidden=HIDDEN)
    for stage in ("train", "select"):
        codes[stage] = cli.main([stage, "--config", str(config)])
    return config, workdir, codes


def selection_records(workdir):
    lines = (workdir / "selections.jsonl").read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


class TestPipeline:
    def test_every_stage_exits_zero(self, planted):
        config, workdir, codes = planted
        codes["evaluate"] = cli.main(["evaluate", "--config", str(config)])
        assert codes == {"preprocess": 0, "train": 0, "select": 0, "evaluate": 0}
        _, records = selection_records(workdir)
        report = json.loads((workdir / "evaluation.json").read_text(encoding="utf-8"))
        assert records and report["pairs"] + report["excluded"] == len(records)

    def test_changed_hidden_asks_to_retrain(self, planted, tmp_path, capsys):
        config, workdir, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["model"]["hidden"] = 2 * HIDDEN
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["select", "--config", str(changed)]) == 1
        assert "re-run train" in capsys.readouterr().err

    def test_vector_width_mismatch_is_an_error(self, planted, tmp_path, capsys):
        config, _, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["model"]["hidden"] = 2 * HIDDEN
        doc["paths"]["workdir"] = str(tmp_path / "work")
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["preprocess", "--config", str(changed)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(changed)]) == 1
        assert capsys.readouterr().err.startswith(f"error: attribute/word vectors have dim {HIDDEN}, expected {2 * HIDDEN}")

    def test_corrupt_checkpoint_is_an_error(self, planted, tmp_path, capsys):
        config, _, _ = planted
        junk = tmp_path / "junk.ntar"
        junk.write_bytes(b"not an archive\n")
        assert cli.main(["select", "--config", str(config), "--checkpoint", str(junk)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a tensor archive" in err

    @pytest.mark.parametrize("keep_header", [True, False])
    def test_explicit_selections_evaluate_every_record(self, planted, tmp_path, keep_header):
        config, workdir, _ = planted
        header, records = selection_records(workdir)
        path = tmp_path / "selections.jsonl"
        path.write_text("\n".join(([header] if keep_header else []) + records) + "\n", encoding="utf-8")
        report = cli.cmd_evaluate(PipelineConfig.load(config), selections=str(path))
        assert report.pairs + report.excluded == len(records)


def parsed_config(tmp_path, argv, **sections):
    config = write_config(tmp_path / "config.json", tmp_path, tmp_path / "work", **sections)
    args = cli._build_parser().parse_args(["train", "--config", str(config), *argv])
    return cli._load_config(args)


class TestConfig:
    @pytest.mark.parametrize(
        "flag, section, field",
        [("--no-gat", "model", "disable_gat"), ("--no-dcn", "model", "disable_dcn"), ("--no-ilp", "selection", "disable_ilp")],
    )
    def test_flag_and_field_hash_alike(self, tmp_path, flag, section, field):
        by_flag = parsed_config(tmp_path, [flag])
        by_field = parsed_config(tmp_path, [], **{section: {field: True}})
        plain = parsed_config(tmp_path, [])
        assert getattr(getattr(by_flag, section), field)
        assert by_flag.select_hash() == by_field.select_hash() != plain.select_hash()
        assert by_flag.train_hash() == by_field.train_hash()

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"ablations": {"disable_gat": True}}, "ablations"),
            ({"workers": 2}, "workers"),
            ({"corpus": {"vocab_size": 20000}}, "corpus.vocab_size"),
        ],
    )
    def test_removed_keys_rejected_by_name(self, doc, name):
        with pytest.raises(ConfigError, match=name):
            PipelineConfig.from_dict(doc)

    def test_dict_roundtrip(self, tmp_path):
        cfg = parsed_config(tmp_path, ["--no-dcn"], training={"lambda": 0.25}, corpus={"ratios": [0.5, 0.25, 0.25]})
        again = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.train_hash() == cfg.train_hash()
