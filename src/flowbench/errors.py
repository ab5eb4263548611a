"""Exception types shared across the package."""


class FlowbenchError(Exception):
    """Base class for all flowbench errors."""


class SchemaError(FlowbenchError):
    """A dataset schema is inconsistent or does not match the file."""


class DataFormatError(FlowbenchError):
    """A raw CSV cell or row violates the expected format.

    ``row`` is the 0-based data row of the file, the header not counted,
    also when deduplication removed rows before it; ``column`` is the
    column name.
    """

    def __init__(self, message, row=None, column=None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column


class TrainingDiverged(FlowbenchError):
    """Loss became non-finite during network training."""

    def __init__(self, epoch, batch):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
