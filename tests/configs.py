"""Model configs shared by the test modules."""


def tiny_config():
    """Small enough to forward in milliseconds, same shape constraints."""
    return {
        "stem": {"blocks": 1, "convs_per_block": 1, "channels": [2],
                 "dropout": [0.0], "kernel_size": 3, "norm": "fused"},
        "encoder": {"blocks": 1, "heads": 1, "patch_dim": 2, "dropout": 0.0,
                    "strategy": "harmformer_default", "rpe": True,
                    "keep_phase": True, "num_buckets": 4, "mlp_ratio": 2,
                    "norm_mode": "std"},
        "head": {"classes": 3},
        "input": {"channels": 1, "base_size": 8, "pad": 0, "upscale_factor": 1},
    }
