import dataclasses
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidtldr.costmodel import plan_schedule
from vidtldr.harness import config
from vidtldr.harness.config import ConfigError, InvariantError, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("text", [
    "", "run.seed = x\n", "run.seed = 1\nrun.mode = nope\n", "run.seed = 1\nbogus\n",
    "run.seed = 1\nrun.seed = 1\n", b"run.seed = 1\nout.dir = caf\xe9\n",
])
def test_config_errors_name_the_file(tmp_path, text):
    path = tmp_path / "a.cfg"
    (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    with pytest.raises(ConfigError) as e:
        config.load_config(path)
    assert str(e.value).startswith(f"{path}:")


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
    for value in ("nan", "inf", "-inf", "1e300", "-1e300", "1e39"):
        with pytest.raises(ConfigError, match="finite"):
            parse_config_text(f"run.seed = 1\nmodel.temporal_bias = {value}\n")
    for value in (1e30, -1e30):  # the bound itself is accepted
        cfg = parse_config_text(f"run.seed = 1\nmodel.temporal_bias = {value}\n")
        assert cfg.temporal_bias == value
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


def test_clip_identity_is_clip_keys_and_seed():
    assert config.CLIP_IDENTITY == (
        "frames", "height", "width", "tube", "patch", "channels", "pattern", "seed"
    )


def test_readme_config_table_matches_schema():
    """README's "Configuration keys" table names exactly RunConfig's keys,
    each once, with its default: ``required`` where there is none,
    ``empty`` for the empty string, else the default text in backquotes."""
    lines = README.read_text(encoding="utf-8").split("### Configuration keys", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))[2:]
    documented = []
    for row in rows:
        keys, default = [cell.strip() for cell in row.strip("|").split("|")][:2]
        documented += [(key, default) for key in re.findall(r"`([^`]+)`", keys)]

    def shown(default):
        return {None: "required", "": "empty"}.get(default, f"`{default}`")

    expected = [(f.metadata["key"], shown(f.metadata["default"]))
                for f in dataclasses.fields(config.RunConfig)]
    assert sorted(documented) == sorted(expected)


def test_readme_modes_sentence_names_the_mode_table():
    """README's "Modes:" sentence names exactly RunConfig.reducers' modes, each once."""
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"^Modes: (.*?)\.\s", text, re.M | re.S).group(1)
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted(config.RunConfig.reducers(None))


@st.composite
def run_configs(draw):
    """Valid RunConfigs: small geometry, any mode, a schedule the plan accepts."""
    tube = draw(st.integers(1, 3))
    patch = draw(st.integers(1, 8))
    heads = draw(st.integers(1, 4))
    layers = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(config.MODES))
    spec = dict(
        frames=tube * draw(st.integers(1, 4)),
        height=patch * draw(st.integers(1, 4)),
        width=patch * draw(st.integers(1, 4)),
        tube=tube,
        patch=patch,
        channels=draw(st.integers(1, 4)),
    )
    n = (spec["frames"] // tube) * (spec["height"] // patch) * (spec["width"] // patch)
    schedule = []
    for r in draw(st.lists(st.integers(0, 3), max_size=layers)):
        r = 0 if mode == "baseline" else min(r, n // 2 if mode in ("tome", "vidtldr") else n - 1)
        schedule.append(r)
        n -= r
    return config.RunConfig(
        **spec,
        pattern=draw(st.sampled_from(config.PATTERNS)),
        model_width=heads * draw(st.integers(1, 8)),
        heads=heads,
        layers=layers,
        temporal_bias=draw(st.floats(-config.MAX_FLOAT, config.MAX_FLOAT)),
        mode=mode,
        schedule=tuple(schedule),
        seed=draw(st.integers(0, 2**64)),
        out_dir=draw(st.text("abz09/._-", min_size=1, max_size=12)),
        dump_attention=draw(st.booleans()),
        dump_tokens=draw(st.booleans()),
    )


def _changed(name, value):
    """A value of the same type as ``value`` that differs from it."""
    choices = {"mode": config.MODES, "pattern": config.PATTERNS}.get(name)
    if choices:
        return choices[(choices.index(value) + 1) % len(choices)]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 1.0
    if isinstance(value, tuple):
        return value + (1,)
    return value + "x"


@settings(max_examples=30, deadline=None)
@given(cfg=run_configs())
def test_schema_round_trip_and_identity(cfg):
    text = cfg.canonical_text()
    assert parse_config_text(text) == cfg
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert len(keys) == len(set(keys)) == len(dataclasses.fields(config.RunConfig))
    for f in dataclasses.fields(config.RunConfig):
        other = dataclasses.replace(cfg, **{f.name: _changed(f.name, getattr(cfg, f.name))})
        assert other.run_id != cfg.run_id, f.name
