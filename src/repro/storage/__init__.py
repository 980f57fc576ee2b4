"""Cloud storage substrates: blob store, queue, and table.

These model the remote storage services both platforms lean on —
S3 / Azure Blob for large objects, SQS / Azure Storage Queues for
messaging, DynamoDB / Azure Table for key-value state — with simple
latency models and per-operation transaction metering (the raw material
for the paper's "transaction cost" price component).
"""

from repro.storage.payload import Payload, estimate_size
from repro.storage.meter import TransactionMeter
from repro.storage.blob import BlobStore, BlobNotFound
from repro.storage.queue import CloudQueue, QueueMessage
from repro.storage.table import (
    TableStore,
    TableEntity,
    EntityNotFound,
    PreconditionFailed,
)

__all__ = [
    "BlobNotFound",
    "BlobStore",
    "CloudQueue",
    "EntityNotFound",
    "Payload",
    "PreconditionFailed",
    "QueueMessage",
    "TableEntity",
    "TableStore",
    "TransactionMeter",
    "estimate_size",
]
