"""Model assembly: declarative config -> stem + patches + encoder + head.

A config is a plain JSON-compatible dict with four sections (stem, encoder,
head, input).  The defaults are the schema: `conform` checks a config's keys
and value types against `mnist_config()` (and training's against
`training.train_defaults()`), so adding a key is one edit there.  Building
is a pure function of (config, seed): parameters are drawn from
per-component generators derived from the seed, so the same pair always
yields bit-identical weights.

Checkpoints are single files: little-endian, length-prefixed named records
(parameters and running statistics as fp32 components) with the full config
JSON, its hash, and a CRC32 trailer.  load -> save is byte-identical.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import struct

import numpy as np

from . import ctensor as ct
from . import encoder as enc
from . import head as hd
from . import stem as hs
from .errors import ConfigError, IntegrityError, ShapeError

CHECKPOINT_MAGIC = b"HARM"
CHECKPOINT_VERSION = 2
# images per chunk of an inference forward: a constant, so each image's
# logits depend only on its chunk, never on the thread count or scheduling
INFERENCE_CHUNK = 8


def mnist_config() -> dict:
    """Rotated-digit reference architecture: 2 stem blocks (8 -> 16 channels,
    2 convs each), 3 encoder blocks with a single 16-wide head, 10 classes,
    28px input padded by 2 and upscaled x2."""
    return {
        "stem": {"blocks": 2, "convs_per_block": 2, "channels": [8, 16],
                 "dropout": [0.0, 0.0], "kernel_size": 5, "norm": "fused"},
        "encoder": {"blocks": 3, "heads": 1, "patch_dim": 16, "dropout": 0.1,
                    "strategy": "harmformer_default", "rpe": True,
                    "keep_phase": True, "num_buckets": 16, "mlp_ratio": 2,
                    "norm_mode": "std"},
        "head": {"classes": 10},
        "input": {"channels": 1, "base_size": 28, "pad": 2, "upscale_factor": 2},
    }


def shallow_config() -> dict:
    """Single stem block of three convs and one pooling: the encoder sees a
    32x32x16 grid instead of 16x16x16."""
    cfg = mnist_config()
    cfg["stem"].update({"blocks": 1, "convs_per_block": 3, "channels": [16],
                        "dropout": [0.0]})
    return cfg


def _coerce(label: str, typ, v):
    """Normalize a field to its default's type so equal configs serialize (and
    hash) identically regardless of int/float/bool spelling."""
    try:
        if typ is bool:
            if isinstance(v, bool):
                return v
            if v in (0, 1):
                return bool(v)
        elif typ is int:
            if not isinstance(v, bool) and float(v) == int(v):
                return int(v)
        elif typ is float:
            return float(v)
        elif typ is str:
            if isinstance(v, str):
                return v
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "an integer" if typ is int else f"a {typ.__name__}"
    raise ConfigError(f"{label} must be {kind}, got {v!r}")


def input_size(inp: dict) -> int:
    """Side of a preprocessed image: base size, padded on both sides, upscaled."""
    return (inp["base_size"] + 2 * inp["pad"]) * inp["upscale_factor"]


def conform(config, defaults: dict, label: str = "") -> dict:
    """A new config with exactly the keys of `defaults`, each value coerced
    to its default's type; nested dicts recurse, and a list's items take the
    type of the default list's first item.  Raise ConfigError naming the
    dotted key (under `label`) otherwise."""
    where = label or "config"
    if not isinstance(config, dict):
        raise ConfigError(f"{where} must be an object, got {config!r}")
    if set(config) != set(defaults):
        raise ConfigError(f"{where} keys: missing {sorted(set(defaults) - set(config))}, "
                          f"unknown {sorted(set(config) - set(defaults))}")
    out = {}
    for key, default in defaults.items():
        name, v = f"{label}.{key}" if label else key, config[key]
        if isinstance(default, dict):
            out[key] = conform(v, default, name)
        elif isinstance(default, list):
            if not isinstance(v, list):
                raise ConfigError(f"{name} must be a list, got {v!r}")
            out[key] = [_coerce(f"{name}[{i}]", type(default[0]), x) for i, x in enumerate(v)]
        else:
            out[key] = _coerce(name, type(default), v)
    return out


def validate_config(config: dict) -> dict:
    """Return a normalized copy; raise ConfigError naming the violated
    constraint otherwise.  `mnist_config()` is the schema: a config has its
    sections and keys, each of its default's type, so adding a key is one
    edit there."""
    cfg = conform(config, mnist_config())
    st, en, he, inp = cfg["stem"], cfg["encoder"], cfg["head"], cfg["input"]
    if st["blocks"] != len(st["channels"]):
        raise ConfigError(f"stem.blocks={st['blocks']} but {len(st['channels'])} channel widths")
    if len(st["dropout"]) != len(st["channels"]):
        raise ConfigError("stem.dropout length must match stem.channels")
    if st["kernel_size"] % 2 == 0 or st["kernel_size"] < 3:
        raise ConfigError(f"stem.kernel_size must be odd and >= 3, got {st['kernel_size']}")
    if any(c < 1 for c in st["channels"]):
        raise ConfigError("stem.channels must be positive")
    if st["norm"] not in hs.NORMS:
        raise ConfigError(f"stem.norm must be one of {hs.NORMS}, got {st['norm']!r}")
    for key, lo in (("blocks", 0), ("heads", 1), ("patch_dim", 1),
                    ("num_buckets", 2), ("mlp_ratio", 1)):
        if en[key] < lo:
            raise ConfigError(f"encoder.{key} must be >= {lo}, got {en[key]}")
    if en["strategy"] not in enc.STRATEGIES:
        raise ConfigError(f"encoder.strategy must be one of {enc.STRATEGIES}")
    if en["norm_mode"] not in enc.NORM_MODES:
        raise ConfigError(f"encoder.norm_mode must be one of {enc.NORM_MODES}, "
                          f"got {en['norm_mode']!r}")
    for name, rate in [("encoder.dropout", en["dropout"])] + [
            (f"stem.dropout[{i}]", r) for i, r in enumerate(st["dropout"])]:
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"{name} must lie in [0, 1), got {rate}")
    if he["classes"] < 2:
        raise ConfigError(f"head.classes must be >= 2, got {he['classes']}")
    if inp["channels"] < 1 or inp["base_size"] < 1:
        raise ConfigError("input.channels and input.base_size must be positive")
    if inp["pad"] < 0 or inp["upscale_factor"] < 1:
        raise ConfigError("input.pad must be >= 0 and input.upscale_factor >= 1")
    size = input_size(inp)
    for i in range(st["blocks"]):
        if (size >> i) % 2:
            raise ConfigError(
                f"input size {size} becomes odd ({size >> i}) before pooling stage {i}; "
                f"every pooled dimension must stay even")
    if en["blocks"] and (size >> st["blocks"]) ** 2 < 2:
        raise ConfigError("encoder needs at least 2 patches after pooling")
    return cfg


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class Model:
    """Stem -> 1x1 patches -> encoder -> invariant head, with one flat
    name -> array parameter dict shared by every component."""

    def __init__(self, config: dict, seed: int, precision: str = "f32"):
        if precision not in ct.DTYPES:
            raise ConfigError(f"precision must be one of {sorted(ct.DTYPES)}")
        self.config = validate_config(config)
        self.seed = int(seed)
        self.precision = precision
        st, en = self.config["stem"], self.config["encoder"]
        inp = self.config["input"]
        self.input_size = input_size(inp)
        grid = self.input_size >> st["blocks"]
        self.grid_shape = (grid, grid)
        d = st["channels"][-1] if st["blocks"] else inp["channels"]
        self.d = d

        self.stem = hs.Stem("stem", inp["channels"], st["channels"],
                            st["convs_per_block"], st["kernel_size"],
                            st["dropout"], ct.derive_rng(self.seed, "stem"),
                            norm=st["norm"])
        self.encoder = enc.Encoder(
            "encoder", en["blocks"], d, en["heads"], self.grid_shape,
            ct.derive_rng(self.seed, "encoder"), strategy=en["strategy"],
            rpe_on=en["rpe"], keep_phase=en["keep_phase"],
            mlp_ratio=en["mlp_ratio"], num_buckets=en["num_buckets"],
            dropout=en["dropout"], norm_mode=en["norm_mode"],
            head_dim=en["patch_dim"])
        self.head = hd.Head("head", d, self.config["head"]["classes"],
                            ct.derive_rng(self.seed, "head"))

        rdt, cdt = ct.DTYPES[precision]
        self.params = {}
        for comp in (self.stem, self.encoder, self.head):
            for k, v in comp.params.items():
                self.params[k] = v.astype(cdt if np.iscomplexobj(v) else rdt)
        for blk in self.stem.blocks:
            for _, bn in blk["convs"]:
                if bn is None:
                    continue
                for k in bn.buffers:
                    bn.buffers[k] = bn.buffers[k].astype(rdt)
        self.buffers = self.stem.buffers()
        self.last_epoch = 0
        self.metrics = {}

    def leaves(self, tape: ct.GradTape | None = None) -> dict:
        """Wrap parameters as tensors; on a tape they become trainable."""
        if tape is None:
            return {k: ct.CTensor(v) for k, v in self.params.items()}
        return {k: tape.parameter(k, v) for k, v in self.params.items()}

    def forward(self, images, leaves: dict | None = None, train: bool = False,
                rng: np.random.Generator | None = None) -> ct.CTensor:
        """Real image batch (B, C, S, S) -> logits (B, classes).

        Training forwards (batch norm takes whole-batch statistics) and
        forwards on a tape are one pass.  An inference forward (train=False,
        no leaf or image on a tape) runs consecutive INFERENCE_CHUNK-image
        chunks through `stem_features` -> `classify` and concatenates their
        logits in input order; with more than one chunk, `ct._map_split`
        may run every other chunk on its worker thread, and the
        convolutions inside a chunk then run on one thread.  A one-pass
        forward or one chunk of more than one image may split its convs'
        frequency blocks instead, `ct.FREQ_BLOCK` wide at any batch (`ct._mix`).
        Each image's bits depend only on its chunk, never on the thread
        count; they differ from one unchunked pass by a few 1e-15 relative.
        """
        if leaves is None:
            leaves = self.leaves()
        img = self._images(images)
        if train or img.tape is not None or any(v.tape is not None for v in leaves.values()):
            return self.classify(self.stem_features(img, leaves, train, rng), leaves, train, rng)
        # an empty batch is one empty chunk
        chunks = [ct.CTensor(img.data[i:i + INFERENCE_CHUNK])
                  for i in range(0, max(len(img.data), 1), INFERENCE_CHUNK)]
        logits = ct._map_split(lambda x: self.classify(self.stem_features(x, leaves), leaves).data,
                               chunks)
        return ct.CTensor(np.concatenate(logits))

    def _images(self, images) -> ct.CTensor:
        """The image batch as a tensor; ShapeError unless it is (B, C, S, S)
        with the config's channels and input size."""
        img = images if isinstance(images, ct.CTensor) else ct.CTensor(np.asarray(images))
        b = img.shape
        if len(b) != 4 or b[1] != self.config["input"]["channels"] or \
                b[2] != self.input_size or b[3] != self.input_size:
            raise ShapeError(
                f"expected (B, {self.config['input']['channels']}, "
                f"{self.input_size}, {self.input_size}) input, got {b}")
        return img

    def stem_features(self, images, leaves: dict, train: bool = False,
                      rng: np.random.Generator | None = None) -> ct.CTensor:
        """Real image batch (B, C, S, S) -> stem features (B, O, C', H, W)
        over every order in ORDERS."""
        img = self._images(images)
        return hs.embed_orders(self.stem.forward(img, leaves, train=train, rng=rng))

    def classify(self, x: ct.CTensor, leaves: dict, train: bool = False,
                 rng: np.random.Generator | None = None) -> ct.CTensor:
        """Stem features -> logits: patches, encoder, invariant head."""
        p = self.encoder.forward(enc.patchify(x), leaves, train=train, rng=rng)
        return self.head.forward(p, leaves)


def build(config: dict, seed: int, precision: str = "f32") -> Model:
    return Model(config, seed, precision)


def count_params(model: Model) -> int:
    """Real scalar count; a complex weight counts as two."""
    return sum(v.size * (2 if np.iscomplexobj(v) else 1) for v in model.params.values())


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def _record_bytes(name: str, arr: np.ndarray, role: int) -> bytes:
    kind = 1 if np.iscomplexobj(arr) else 0
    payload = arr.astype("<c8" if kind else "<f4").tobytes()
    head = struct.pack("<I", len(name)) + name.encode()
    head += struct.pack("<BBB", kind, role, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + struct.pack("<Q", len(payload)) + payload


def save(model: Model, path) -> None:
    """Write the checkpoint file.  Output is a pure function of model state,
    its `last_epoch` and `metrics` included, so load -> save round-trips
    byte-identically."""
    cfg_json = json.dumps(model.config, sort_keys=True, separators=(",", ":"))
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for blob in (cfg_json, config_hash(model.config)):
        out.append(struct.pack("<I", len(blob)))
        out.append(blob.encode())
    out.append(struct.pack("<qI", model.seed, model.last_epoch))
    metrics_json = json.dumps(model.metrics, sort_keys=True, separators=(",", ":"))
    out.append(struct.pack("<I", len(metrics_json)))
    out.append(metrics_json.encode())
    records = [(n, model.params[n], 0) for n in sorted(model.params)]
    records += [(n, model.buffers[n], 1) for n in sorted(model.buffers)]
    out.append(struct.pack("<I", len(records)))
    for name, arr, role in records:
        out.append(_record_bytes(name, arr, role))
    body = b"".join(out)
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", binascii.crc32(body)))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise IntegrityError(f"checkpoint truncated at byte {self.pos}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, parse=str):
        """A length-prefixed UTF-8 string, through `parse`."""
        raw = self.take(*self.unpack("<I"))
        try:
            return parse(raw.decode())
        except ValueError as e:     # UnicodeDecodeError, json.JSONDecodeError
            raise IntegrityError(f"malformed text before byte {self.pos}: {e}") from e


def load(path, expect_config: dict | None = None, precision: str = "f32") -> Model:
    """Rebuild the model from a checkpoint; verifies the CRC32 trailer, the
    stored config hash, (when given) the caller's expected config, and that
    each record's kind (0 real, 1 complex) is that of the array it loads
    into."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise IntegrityError("checkpoint truncated: shorter than the header")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if binascii.crc32(body) != crc:
        raise IntegrityError("checkpoint checksum mismatch")
    r = _Reader(body)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise IntegrityError("not a model checkpoint (bad magic)")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise IntegrityError(f"unsupported checkpoint version {version}")
    config = r.text(json.loads)
    stored_hash = r.text()
    if config_hash(config) != stored_hash:
        raise IntegrityError("stored config does not match its recorded hash")
    if expect_config is not None and config_hash(validate_config(expect_config)) != stored_hash:
        raise IntegrityError(
            f"checkpoint config hash {stored_hash[:12]}... does not match the requested config")
    seed, epoch = r.unpack("<qI")
    metrics = r.text(json.loads)
    (n_records,) = r.unpack("<I")
    loaded = {}
    for _ in range(n_records):
        name = r.text()
        kind, role, ndim = r.unpack("<BBB")
        shape = r.unpack(f"<{ndim}I")
        (nbytes,) = r.unpack("<Q")
        if kind not in (0, 1):
            raise IntegrityError(f"record {name}: unknown kind {kind}")
        dtype = np.dtype("<c8" if kind else "<f4")
        if nbytes != dtype.itemsize * np.prod(shape, dtype=object):   # exact, no int64 wrap
            raise IntegrityError(f"record {name}: {nbytes} bytes for shape {shape}")
        if name in loaded:
            raise IntegrityError(f"record {name} appears twice")
        loaded[name] = (np.frombuffer(r.take(nbytes), dtype).reshape(shape), role)
    if r.pos != len(body):
        raise IntegrityError(f"{len(body) - r.pos} trailing bytes after the last record")

    model = Model(config, seed, precision)
    expected = {**{k: 0 for k in model.params}, **{k: 1 for k in model.buffers}}
    if {k: v[1] for k, v in loaded.items()} != expected:
        raise IntegrityError("checkpoint parameter set does not match the config")
    for name, (arr, role) in loaded.items():
        target = model.params[name] if role == 0 else model.buffers[name]
        if target.shape != arr.shape:
            raise IntegrityError(f"record {name}: shape {arr.shape} != expected {target.shape}")
        if np.iscomplexobj(arr) != np.iscomplexobj(target):
            raise IntegrityError(f"record {name}: kind does not match its {target.dtype} array")
        target[...] = arr
    model.last_epoch = epoch
    model.metrics = metrics
    return model
