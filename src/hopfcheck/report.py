"""The one report type.  It imports nothing from hopfcheck, so a category
check records its claims without loading the Hopf-algebra layers."""


class Report:
    """Named exact checks, with a witness for each failing one."""

    def __init__(self) -> None:
        self.checks: dict[str, bool] = {}
        self.witnesses: dict[str, str] = {}

    def record(self, name: str, ok: bool, witness: str = "") -> None:
        self.checks[name] = ok
        if not ok and witness:
            self.witnesses[name] = witness

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def first_failure(self, names: tuple[str, ...] = ()) -> str:
        """The first failing check among names (all checks when none are
        named), with its witness when it has one; empty when they pass."""
        name = next((k for k in names or self.checks if not self.checks[k]),
                    "")
        witness = self.witnesses.get(name)
        return f"{name}: {witness}" if witness else name
