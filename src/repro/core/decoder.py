"""ConvTransE decoder (Shang et al., 2019) — the paper's score function.

For each query the fused subject embedding and the query relation
embedding are stacked as two channels, convolved with 1-D kernels along
the embedding axis, projected back to the embedding dimension, and scored
against every candidate entity by dot product (Eq. 18).
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, Parameter, Tensor
from ..nn import init as weight_init
from ..nn.ops import conv1d_same, dropout, fused_convtranse, stack


class ConvTransE(Module):
    """Convolutional score function over (subject, relation) pairs.

    Parameters follow the paper's §IV-B2 setting: ``num_kernels=50``
    kernels of width 3 over the two stacked channels, dropout 0.2.
    """

    def __init__(self, dim: int, rng: np.random.Generator,
                 num_kernels: int = 50, kernel_width: int = 3,
                 dropout_rate: float = 0.2):
        super().__init__()
        self.dim = dim
        self.num_kernels = num_kernels
        self.conv_weight = Parameter(
            weight_init.kaiming_uniform((num_kernels, 2, kernel_width), rng))
        self.conv_bias = Parameter(weight_init.zeros((num_kernels,)))
        self.fc = Linear(num_kernels * dim, dim, rng)
        self.dropout_rate = dropout_rate
        self._rng = rng

    def transform(self, subjects: Tensor, relations: Tensor) -> Tensor:
        """Map (Q, d) subject and relation rows to (Q, d) query features."""
        x = stack([subjects, relations], axis=1)             # (Q, 2, d)
        x = dropout(x, self.dropout_rate, self.training, self._rng)
        feat = conv1d_same(x, self.conv_weight, self.conv_bias)  # (Q, K, d)
        feat = feat.relu()
        feat = dropout(feat, self.dropout_rate, self.training, self._rng)
        flat = feat.reshape(feat.shape[0], self.num_kernels * self.dim)
        out = self.fc(flat).relu()
        return dropout(out, self.dropout_rate, self.training, self._rng)

    def forward(self, subjects: Tensor, relations: Tensor,
                candidates: Tensor) -> Tensor:
        """Raw scores (Q, |E|): query features dotted with candidates."""
        return fused_convtranse(
            subjects, relations, candidates, self.conv_weight,
            self.conv_bias, self.fc.weight, self.fc.bias,
            training=self.training, dropout_rate=self.dropout_rate,
            rng=self._rng)

    def forward_indexed(self, entity_matrix: Tensor, relation_matrix: Tensor,
                        candidates: Tensor, subject_index: np.ndarray,
                        relation_index: np.ndarray) -> Tensor:
        """Scores with the per-query row gather folded into the kernel.

        Equivalent to ``forward(entity_matrix[subject_index],
        relation_matrix[relation_index], candidates)`` but without the
        two standalone gather nodes (and their scatter-add backwards).
        """
        return fused_convtranse(
            entity_matrix, relation_matrix, candidates, self.conv_weight,
            self.conv_bias, self.fc.weight, self.fc.bias,
            training=self.training, dropout_rate=self.dropout_rate,
            rng=self._rng, subject_index=subject_index,
            relation_index=relation_index)
