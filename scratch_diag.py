"""Diagnose DP linear-regression training dynamics."""

import numpy as np

from plislab import datasets, dpsgd, models, rng

ds = datasets.make_regression(500, 16, {9}, noise_sd=0.1, seed=123)
spec = models.ModelSpec((models.Linear(16, 1, bias=False),), models.MSE)
pairs = [(ds.X[i], np.array([ds.y[i]])) for i in range(ds.n)]

# clipped drift only, no noise
cfg = dpsgd.DpSgdConfig(learning_rate=0.05, epochs=50, batch_size=500, seed=7,
                        private=True, clip=1.0, sigma=1e-12)
trace = dpsgd.train(spec, pairs, cfg)
print("clip-only  w9:", trace.params.flat[9], " loss:", trace.per_epoch_loss[-1])
print("clip-only  w_other_max:", np.abs(np.delete(trace.params.flat, 9)).max())

# noise only contribution: estimated std of weights
cfg2 = dpsgd.DpSgdConfig(learning_rate=0.05, epochs=50, batch_size=500, seed=7,
                         private=True, clip=1.0, sigma=132.36)
trace2 = dpsgd.train(spec, pairs, cfg2)
print("with noise w:", np.array2string(trace2.params.flat, precision=3))
print("with noise loss:", trace2.per_epoch_loss[-1])

# raw noise draw scale check
draws = np.stack([rng.gaussians(7, dpsgd._NOISE_STREAM + t, 16) for t in range(50)])
print("noise draw mean/std:", draws.mean(), draws.std())
walk = 0.05 * 132.36 / 500 * draws.sum(axis=0)
print("pure random-walk std over 50 steps:", walk.std())
