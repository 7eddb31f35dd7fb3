"""Unit tests for model checkpointing.

The damage helpers spell the file layout out on their own (docs/
serving.md, "The checkpoint file") instead of importing it, so they pin
the documented format; ``tests/test_serving_store.py`` replays the same
``DAMAGE`` table through ``ModelStore.swap``.
"""

import dataclasses
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointVersionError,
    load_checkpoint,
    resume_hogwild,
    save_checkpoint,
)
from repro.mf.model import MFModel
from repro.mf.sgd import HogwildSGD

PREFIX = struct.Struct("<8sIII")    # magic, version, meta length, meta CRC32
PAGE = 4096


def ckpt_file(path) -> Path:
    return Path(str(path) + ".ckpt")


def header_of(raw: bytes):
    """``(magic, version, meta, data_start)`` of a checkpoint's bytes."""
    magic, version, meta_len, _crc = PREFIX.unpack_from(raw)
    meta = json.loads(raw[PREFIX.size : PREFIX.size + meta_len])
    return magic, version, meta, -(-(PREFIX.size + meta_len) // PAGE) * PAGE


def array_span(raw: bytes, name: str) -> tuple[int, int]:
    """Byte range of one stored array."""
    *_, meta, data_start = header_of(raw)
    entry = meta["arrays"][name]
    lo = data_start + entry["offset"]
    return lo, lo + 4 * int(np.prod(entry["shape"]))


def reissue_header(file: Path, magic=None, version=None, edit=lambda meta: None):
    """Rewrite the header around an edited meta block, with a *matching* CRC."""
    raw = bytearray(file.read_bytes())
    old_magic, old_version, meta, data_start = header_of(raw)
    edit(meta)
    body = json.dumps(meta).encode()
    header = PREFIX.pack(
        old_magic if magic is None else magic,
        old_version if version is None else version,
        len(body), zlib.crc32(body),
    ) + body
    assert len(header) <= data_start    # the arrays stay where they are
    raw[:data_start] = header.ljust(data_start, b"\0")
    file.write_bytes(raw)


def flip_byte(file: Path, at: int) -> None:
    raw = bytearray(file.read_bytes())
    raw[at] ^= 0x40
    file.write_bytes(raw)


def cut(file: Path, length: int) -> None:
    file.write_bytes(file.read_bytes()[:length])


def poison(file: Path, name: str, value: float) -> None:
    """Store ``value`` in an array and re-issue that array's CRC to match."""
    raw = bytearray(file.read_bytes())
    lo, hi = array_span(raw, name)
    struct.pack_into("<f", raw, lo + 8, value)
    file.write_bytes(raw)
    crc = f"{zlib.crc32(raw[lo:hi]):08x}"
    reissue_header(file, edit=lambda meta: meta["arrays"][name].update(crc32=crc))


#: damage -> (what it does to a good file, the ValueError it must load as)
DAMAGE = {
    "cut-in-prefix": (lambda f: cut(f, PREFIX.size - 3), "truncated inside the header"),
    "cut-in-meta": (lambda f: cut(f, PREFIX.size + 9), "truncated inside the header"),
    "cut-in-P": (lambda f: cut(f, array_span(f.read_bytes(), "P")[0] + 10), "B long"),
    "cut-in-Q": (lambda f: cut(f, f.stat().st_size - 1), "B long"),
    "trailing-byte": (lambda f: f.write_bytes(f.read_bytes() + b"x"), "B long"),
    "flip-in-P": (lambda f: flip_byte(f, array_span(f.read_bytes(), "P")[0] + 5),
                  "factor P .* fails its CRC"),
    "flip-in-Q": (lambda f: flip_byte(f, array_span(f.read_bytes(), "Q")[1] - 1),
                  "factor Q .* fails its CRC"),
    "flip-in-meta": (lambda f: flip_byte(f, PREFIX.size + 4), "header CRC"),
    "wrong-magic": (lambda f: reissue_header(f, magic=b"NOTACKPT"), "bad magic"),
    "nan-under-valid-crc": (lambda f: poison(f, "Q", np.nan), "factor Q .* non-finite"),
    "inf-under-valid-crc": (lambda f: poison(f, "P", -np.inf), "factor P .* non-finite"),
    "offset-skew": (
        lambda f: reissue_header(f, edit=lambda meta: meta["arrays"]["Q"].update(offset=64)),
        "disagrees"),
    "meta-missing-fields": (lambda f: reissue_header(f, edit=lambda meta: meta.clear()),
                            "malformed header"),
    "negative-shape": (
        lambda f: reissue_header(f, edit=lambda meta: meta["shape"].update(m=-1, k=-8)),
        "malformed header"),
}


@pytest.fixture
def trained_ckpt(small_ratings):
    h = HogwildSGD(k=8, lr=0.01, reg=0.01, seed=2)
    h.fit(small_ratings, epochs=4)
    return Checkpoint(
        model=h.model,
        epoch=4,
        rmse_history=h.history.rmse,
        config={"lr": 0.01, "reg": 0.01, "seed": 2, "batch_size": 4096},
    )


def mapped_files() -> str:
    return Path("/proc/self/maps").read_text()


class TestSaveLoad:
    def test_exact_roundtrip(self, trained_ckpt, tmp_path):
        path = tmp_path / "ckpt"
        save_checkpoint(trained_ckpt, path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.ckpt"]   # one file
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.model.P, trained_ckpt.model.P)
        np.testing.assert_array_equal(back.model.Q, trained_ckpt.model.Q)
        assert back.epoch == 4
        assert back.version == CHECKPOINT_VERSION
        assert back.rmse_history == pytest.approx(trained_ckpt.rmse_history)
        assert back.config["lr"] == 0.01

    def test_dotted_names_stay_distinct(self, tmp_path):
        """The suffix is appended: ``run.1`` and ``run.2`` are two files."""
        for tag in (1, 2):
            model = MFModel(np.full((3, 2), tag, np.float32), np.full((2, 4), tag, np.float32))
            save_checkpoint(Checkpoint(model=model, epoch=tag), tmp_path / f"run.{tag}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.1.ckpt", "run.2.ckpt"]
        for tag in (1, 2):
            back = load_checkpoint(tmp_path / f"run.{tag}")
            assert back.epoch == tag
            assert back.model.P[0, 0] == back.model.Q[0, 0] == tag

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nothing")

    def test_version_checked(self, trained_ckpt, tmp_path):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        reissue_header(ckpt_file(path), version=CHECKPOINT_VERSION + 99)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_shape_mismatch_detected(self, trained_ckpt, tmp_path):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        reissue_header(ckpt_file(path), edit=lambda meta: meta["shape"].update(k=99))
        with pytest.raises(ValueError, match="disagrees"):
            load_checkpoint(path)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            Checkpoint(model=MFModel.init(2, 2, 2), epoch=-1)

    def test_empty_factor_roundtrips(self, tmp_path):
        model = MFModel(np.zeros((0, 3), np.float32), np.ones((3, 5), np.float32))
        save_checkpoint(Checkpoint(model=model, epoch=0), tmp_path / "e")
        for readonly in (False, True):
            back = load_checkpoint(tmp_path / "e", readonly=readonly).model
            assert back.P.shape == (0, 3)
            np.testing.assert_array_equal(back.Q, model.Q)


class TestReadonly:
    def test_readonly_factors_are_views_of_one_mapping(self, trained_ckpt, tmp_path):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        model = load_checkpoint(path, readonly=True).model
        assert type(model.P) is type(model.Q) is np.ndarray
        for factor, want in ((model.P, trained_ckpt.model.P), (model.Q, trained_ckpt.model.Q)):
            np.testing.assert_array_equal(factor, want)
            assert not factor.flags.writeable and not factor.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 1.0
            with pytest.raises(ValueError):
                factor.flags.writeable = True
        assert mapped_files().count(str(ckpt_file(path))) == 1

    def test_mapping_goes_with_its_last_reader(self, trained_ckpt, tmp_path):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        ckpt = load_checkpoint(path, readonly=True)
        q = ckpt.model.Q
        del ckpt
        assert str(ckpt_file(path)) in mapped_files()   # Q alone keeps it
        assert q[0, 0] == trained_ckpt.model.Q[0, 0]
        del q
        assert str(ckpt_file(path)) not in mapped_files()

    def test_writable_load_is_a_private_copy(self, trained_ckpt, tmp_path):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        model = load_checkpoint(path).model
        assert str(ckpt_file(path)) not in mapped_files()
        model.P[0, 0] += 1.0
        model.Q[0, 0] += 1.0
        assert load_checkpoint(path).model.P[0, 0] == trained_ckpt.model.P[0, 0]


class TestValidation:
    """Every load validates all of the file, mapped or copied."""

    @pytest.mark.parametrize("readonly", [False, True])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_file_is_a_value_error(self, damage, readonly, trained_ckpt, tmp_path):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        load_checkpoint(path, readonly=readonly)    # good before the damage
        inflict, message = DAMAGE[damage]
        inflict(ckpt_file(path))
        with pytest.raises(ValueError, match=message) as ei:
            load_checkpoint(path, readonly=readonly)
        assert not isinstance(ei.value, CheckpointVersionError)
        assert str(ckpt_file(path)) not in mapped_files()

    def test_a_v1_pair_is_not_found(self, trained_ckpt, tmp_path):
        np.savez_compressed(tmp_path / "old.npz", P=trained_ckpt.model.P,
                            Q=trained_ckpt.model.Q)
        (tmp_path / "old.json").write_text(json.dumps({"version": 1, "epoch": 4}))
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "old")


class TestResume:
    def test_resume_continues_convergence(self, trained_ckpt, small_ratings, tmp_path):
        save_checkpoint(trained_ckpt, tmp_path / "c")
        loaded = load_checkpoint(tmp_path / "c")
        resumed = resume_hogwild(loaded, small_ratings, extra_epochs=4)
        assert resumed.epoch == 8
        assert len(resumed.rmse_history) == 8
        assert resumed.rmse_history[-1] < trained_ckpt.rmse_history[-1]

    def test_resume_hyperparam_override(self, trained_ckpt, small_ratings):
        resumed = resume_hogwild(trained_ckpt, small_ratings, 1, lr=0.123)
        assert resumed.config["lr"] == 0.123

    def test_resume_validation(self, trained_ckpt, small_ratings):
        with pytest.raises(ValueError):
            resume_hogwild(trained_ckpt, small_ratings, extra_epochs=0)

    def test_full_run_close_to_resumed_run(self, small_ratings, tmp_path):
        """4 + 4 resumed epochs land near a straight 8-epoch run (exact
        equality is not expected: the resume uses a fresh RNG stream)."""
        h8 = HogwildSGD(k=8, lr=0.01, reg=0.01, seed=2)
        h8.fit(small_ratings, epochs=8)
        h4 = HogwildSGD(k=8, lr=0.01, reg=0.01, seed=2)
        h4.fit(small_ratings, epochs=4)
        ckpt = Checkpoint(
            model=h4.model, epoch=4, rmse_history=h4.history.rmse,
            config={"lr": 0.01, "reg": 0.01, "seed": 2, "batch_size": 4096},
        )
        resumed = resume_hogwild(ckpt, small_ratings, extra_epochs=4)
        assert resumed.rmse_history[-1] == pytest.approx(
            h8.history.rmse[-1], abs=0.05
        )


class TestAtomicWrites:
    def test_no_temp_residue_after_save(self, trained_ckpt, tmp_path):
        save_checkpoint(trained_ckpt, tmp_path / "c")
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_write_preserves_previous_checkpoint(
        self, trained_ckpt, tmp_path, monkeypatch
    ):
        """A save that dies at its last step (simulated: the one rename
        raises) must leave the previous checkpoint byte-identical and no
        temp debris — the whole point of writing checkpoints atomically."""
        import repro.core.checkpoint as ck

        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        before = ckpt_file(path).read_bytes()

        def disk_full(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(ck.os, "replace", disk_full)
        newer = dataclasses.replace(trained_ckpt, epoch=9)
        with pytest.raises(OSError):
            save_checkpoint(newer, path)
        monkeypatch.undo()

        assert ckpt_file(path).read_bytes() == before
        assert load_checkpoint(path).epoch == 4  # the old checkpoint, intact
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("factor", ["P", "Q"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_factor_is_refused_before_the_rename(
        self, factor, bad, trained_ckpt, tmp_path
    ):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        before = ckpt_file(path).read_bytes()
        model = MFModel(trained_ckpt.model.P.copy(), trained_ckpt.model.Q.copy())
        getattr(model, factor)[-1, -1] = bad
        with pytest.raises(ValueError, match=f"factor {factor} holds a non-finite"):
            save_checkpoint(dataclasses.replace(trained_ckpt, model=model, epoch=9), path)
        assert ckpt_file(path).read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        # and with no previous file, none appears
        with pytest.raises(ValueError):
            save_checkpoint(dataclasses.replace(trained_ckpt, model=model), tmp_path / "new")
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_version_error_names_both_versions(self, trained_ckpt, tmp_path):
        path = tmp_path / "c"
        save_checkpoint(trained_ckpt, path)
        reissue_header(ckpt_file(path), version=CHECKPOINT_VERSION + 99)
        with pytest.raises(CheckpointVersionError) as ei:
            load_checkpoint(path)
        msg = str(ei.value)
        assert str(CHECKPOINT_VERSION + 99) in msg   # what was on disk
        assert f"version {CHECKPOINT_VERSION}" in msg  # what this build reads
