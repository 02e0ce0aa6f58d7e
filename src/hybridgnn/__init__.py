"""Dual-branch graph neural network for EEG depression detection.

The package is organized around a small float64 autodiff engine
(`hybridgnn.autodiff`); everything downstream (temporal extractor, adjacency
construction, graph convolution, region pooling, the assembled model, and
training) builds dynamic graphs on it and is verified against independent
oracles in the test suite.
"""
