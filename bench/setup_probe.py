"""Set-up of one benchmark job, without the job: import, load, build, exit.

    python3 bench/setup_probe.py CLI_ARG ...

Runs the job's own ``cli.main(argv)`` with the systems layer's entry points
(``compute_theta`` and ``validate_subcomplex``) replaced by a stop: the
first call into either ends the process with code 0.  Everything before
that call (import, argument parsing, loading the inputs, building the face
systems) is the job's own path, so set-up follows the CLI when it changes.
A job that ends without reaching the stop exits with code 1.  ``run.py``
times this process from spawn to exit as ``setup_s``.
"""

from __future__ import annotations

import sys

STOPS = ("compute_theta", "validate_subcomplex")


class SetupDone(Exception):
    """Raised by the first call into the systems layer."""


def _stop(*args, **kwargs):
    raise SetupDone


def install_stops() -> None:
    """Replace every binding of the stop functions in the package."""
    import lambda_homology.cli  # noqa: F401  (imports every layer)

    originals = {name: getattr(sys.modules["lambda_homology.systems"], name)
                 for name in STOPS}
    for key, mod in list(sys.modules.items()):
        if mod is None or not key.startswith("lambda_homology"):
            continue
        for name, orig in originals.items():
            if getattr(mod, name, None) is orig:
                setattr(mod, name, _stop)


def main(argv: list[str]) -> int:
    install_stops()
    from lambda_homology import cli

    try:
        code = cli.main(argv)
    except SetupDone:
        return 0
    print(f"job ended with code {code} before reaching any of {STOPS}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
