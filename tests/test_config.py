import pytest

from vidtldr.costmodel import plan_schedule
from vidtldr.harness import config
from vidtldr.harness.config import ConfigError, InvariantError, parse_config_text


def test_minimal_config_uses_defaults():
    cfg = parse_config_text("run.seed = 7\n")
    assert cfg.seed == 7
    assert cfg.frames == 8 and cfg.height == 64 and cfg.width == 64
    assert cfg.tube == 2 and cfg.patch == 16 and cfg.channels == 3
    assert cfg.pattern == "noise"
    assert cfg.model_width == 64 and cfg.heads == 4 and cfg.layers == 8
    assert cfg.temporal_bias == config.DEFAULT_TEMPORAL_BIAS
    assert cfg.mode == "baseline"
    assert cfg.schedule == ()
    assert cfg.out_dir == "out"
    assert cfg.dump_attention is False and cfg.dump_tokens is False


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# a comment\n\nrun.seed = 3\n  # another\n")
    assert cfg.seed == 3


def test_missing_seed_rejected():
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config_text("run.mode = tome\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="2"):
        parse_config_text("run.seed = 1\nrun.sched = 4\n", source="x.cfg")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("run.seed = 1\nrun.seed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("run.seed 1\n")


def test_type_errors():
    with pytest.raises(ConfigError):
        parse_config_text("run.seed = seven\n")
    with pytest.raises(ConfigError):
        parse_config_text("run.seed = 1\nclip.frames = 2.5\n")
    with pytest.raises(ConfigError):
        parse_config_text("run.seed = 1\nmodel.temporal_bias = warm\n")
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_config_text(f"run.seed = 1\nmodel.temporal_bias = {value}\n")
    with pytest.raises(ConfigError):
        parse_config_text("run.seed = 1\ndump.tokens = yes\n")
    with pytest.raises(ConfigError):
        parse_config_text("run.seed = -4\n")


def test_enum_validation():
    with pytest.raises(ConfigError, match="run.mode"):
        parse_config_text("run.seed = 1\nrun.mode = fancy\n")
    with pytest.raises(ConfigError, match="clip.pattern"):
        parse_config_text("run.seed = 1\nclip.pattern = blob\n")


def test_schedule_parsing():
    cfg = parse_config_text("run.seed = 1\nrun.mode = tome\nrun.schedule = 4, 4, 0, 2\n")
    assert cfg.schedule == (4, 4, 0, 2)
    assert plan_schedule(64, cfg.layers, cfg.schedule, merging=True) == [4, 4, 0, 2, 0, 0, 0, 0]


def test_geometry_invariants_mapped_to_invariant_error():
    with pytest.raises(InvariantError, match="divisible"):
        parse_config_text("run.seed = 1\nclip.frames = 7\n")
    with pytest.raises(InvariantError, match="divisible"):
        parse_config_text("run.seed = 1\nmodel.width = 62\n")


def test_schedule_invariants():
    with pytest.raises(InvariantError, match="non-negative"):
        parse_config_text("run.seed = 1\nrun.mode = tome\nrun.schedule = -2\n")
    with pytest.raises(InvariantError, match="entries"):
        parse_config_text(
            "run.seed = 1\nrun.mode = tome\nrun.schedule = 1,1,1,1,1,1,1,1,1\n"
        )
    with pytest.raises(InvariantError, match="baseline"):
        parse_config_text("run.seed = 1\nrun.schedule = 2\n")


def test_infeasible_schedule_rejected():
    # desk config has 64 tokens
    with pytest.raises(InvariantError, match="infeasible schedule"):
        parse_config_text("run.seed = 1\nrun.mode = tome\nrun.schedule = 32,32\n")
    with pytest.raises(InvariantError, match="infeasible schedule"):
        parse_config_text("run.seed = 1\nrun.mode = prune-rollout\nrun.schedule = 32,32\n")
    # a prune mode may leave exactly one token
    cfg = parse_config_text("run.seed = 1\nrun.mode = prune-rollout\nrun.schedule = 32,31\n")
    assert sum(cfg.schedule) == 63
    # bipartite merging removes at most floor(n/2) tokens per layer
    for mode in ("tome", "vidtldr"):
        for schedule in ("32,31", "40"):
            with pytest.raises(InvariantError, match="infeasible schedule"):
                parse_config_text(
                    f"run.seed = 1\nrun.mode = {mode}\nrun.schedule = {schedule}\n"
                )


def test_large_geometry_schedule_accepted():
    text = (
        "run.seed = 1\n"
        "run.mode = vidtldr\n"
        "clip.frames = 4\nclip.height = 480\nclip.width = 240\n"
        "run.schedule = 100,100,100,0\n"
    )
    cfg = parse_config_text(text)
    assert cfg.clip_spec().n_tokens == 900
    assert plan_schedule(900, cfg.layers, cfg.schedule, merging=True)[:4] == [100, 100, 100, 0]


def test_canonical_text_sorted_and_complete():
    cfg = parse_config_text("run.seed = 9\nrun.mode = tome\nrun.schedule = 2,2\n")
    lines = cfg.canonical_text().splitlines()
    assert lines == sorted(lines)
    assert "run.schedule = 2,2" in lines
    assert "run.seed = 9" in lines
    assert len(lines) == 17


def test_run_id_stable_and_sensitive():
    a = parse_config_text("run.seed = 9\n")
    b = parse_config_text("# comment\nrun.seed = 9\n")
    c = parse_config_text("run.seed = 10\n")
    assert a.run_id == b.run_id
    assert a.run_id != c.run_id
    assert len(a.run_id) == 12
    assert all(ch in "0123456789abcdef" for ch in a.run_id)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("run.seed = 4\nrun.mode = vidtldr\nrun.schedule = 8,8\n")
    cfg = config.load_config(p)
    assert cfg.mode == "vidtldr"
    assert cfg.schedule == (8, 8)
    # the canonical form parses back to the same config
    again = parse_config_text(cfg.canonical_text())
    assert again == cfg
