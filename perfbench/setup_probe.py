"""One cold set-up of a workload in a fresh interpreter: import ticketlab,
build the data, build the model. The caller times the whole process.

Usage: python3 setup_probe.py SRC_DIR SPEC_JSON
SPEC_JSON holds ``data`` (DataConfig fields), ``model`` (ModelConfig
fields), ``model_seed`` and ``cli`` (also import ``ticketlab.cli``).
"""
import json
import sys


def main() -> int:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import ticketlab
    if spec["cli"]:
        import ticketlab.cli  # noqa: F401
    ticketlab.DataConfig(**spec["data"]).build()
    model = {k: tuple(v) if isinstance(v, list) else v
             for k, v in spec["model"].items()}
    ticketlab.ModelConfig(**model).build(spec["model_seed"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
