//! The paper's four benchmark architectures (§5.1): the MNIST toy CNN \[4\],
//! LeNet-5 with ReLU \[26\], ResNet-20 and ResNet-56 \[27, 28\] — plus a
//! shape-level [`ModelSpec`] used by the op-count and cost models without
//! instantiating weights.

use crate::layers::{AvgPool2d, Conv2d, Linear, MaxPool2d, ReLU};
use crate::network::{NetLayer, Network, ResidualBlock};
use athena_math::sampler::Sampler;

/// Identifier of a benchmark model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// One conv + two FC layers, 28×28×1 input.
    Mnist,
    /// LeNet-5 with ReLU and max pooling, 28×28×1 input.
    LeNet,
    /// ResNet-20, 32×32×3 input.
    ResNet20,
    /// ResNet-56, 32×32×3 input.
    ResNet56,
}

impl ModelKind {
    /// All four benchmarks in the paper's order.
    pub fn all() -> [ModelKind; 4] {
        [
            ModelKind::LeNet,
            ModelKind::Mnist,
            ModelKind::ResNet20,
            ModelKind::ResNet56,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Mnist => "MNIST",
            ModelKind::LeNet => "LeNet",
            ModelKind::ResNet20 => "ResNet-20",
            ModelKind::ResNet56 => "ResNet-56",
        }
    }

    /// Input tensor shape `[C, H, W]`.
    pub fn input_shape(&self) -> [usize; 3] {
        match self {
            ModelKind::Mnist | ModelKind::LeNet => [1, 28, 28],
            ModelKind::ResNet20 | ModelKind::ResNet56 => [3, 32, 32],
        }
    }

    /// Builds the float network.
    pub fn build(&self, sampler: &mut Sampler) -> Network {
        match self {
            ModelKind::Mnist => mnist_cnn(sampler),
            ModelKind::LeNet => lenet5(sampler),
            ModelKind::ResNet20 => resnet(3, sampler),
            ModelKind::ResNet56 => resnet(9, sampler),
        }
    }

    /// The shape-level spec (for op counting and the accelerator model).
    pub fn spec(&self) -> ModelSpec {
        match self {
            ModelKind::Mnist => ModelSpec::mnist(),
            ModelKind::LeNet => ModelSpec::lenet(),
            ModelKind::ResNet20 => ModelSpec::resnet(3),
            ModelKind::ResNet56 => ModelSpec::resnet(9),
        }
    }
}

/// The MNIST toy CNN \[4\]: one convolution and two FC layers.
pub fn mnist_cnn(s: &mut Sampler) -> Network {
    let mut net = Network::new();
    net.push(NetLayer::Conv(Conv2d::new(1, 5, 5, 2, 2, s))); // 5×14×14
    net.push(NetLayer::ReLU(ReLU::new()));
    net.push(NetLayer::Linear(Linear::new(5 * 14 * 14, 64, s)));
    net.push(NetLayer::ReLU(ReLU::new()));
    net.push(NetLayer::Linear(Linear::new(64, 10, s)));
    net
}

/// LeNet-5 with ReLU activations and max pooling (two conv, two pool,
/// two FC — as the paper describes its variant).
pub fn lenet5(s: &mut Sampler) -> Network {
    let mut net = Network::new();
    net.push(NetLayer::Conv(Conv2d::new(1, 6, 5, 1, 2, s))); // 6×28×28
    net.push(NetLayer::ReLU(ReLU::new()));
    net.push(NetLayer::MaxPool(MaxPool2d::new(2))); // 6×14×14
    net.push(NetLayer::Conv(Conv2d::new(6, 16, 5, 1, 0, s))); // 16×10×10
    net.push(NetLayer::ReLU(ReLU::new()));
    net.push(NetLayer::MaxPool(MaxPool2d::new(2))); // 16×5×5
    net.push(NetLayer::Linear(Linear::new(16 * 5 * 5, 120, s)));
    net.push(NetLayer::ReLU(ReLU::new()));
    net.push(NetLayer::Linear(Linear::new(120, 10, s)));
    net
}

/// CIFAR ResNet with `blocks_per_stage` blocks in each of three stages
/// (3 → ResNet-20, 9 → ResNet-56).
pub fn resnet(blocks_per_stage: usize, s: &mut Sampler) -> Network {
    let mut net = Network::new();
    net.push(NetLayer::Conv(Conv2d::new(3, 16, 3, 1, 1, s)));
    net.push(NetLayer::ReLU(ReLU::new()));
    let stages = [(16usize, 16usize, 1usize), (16, 32, 2), (32, 64, 2)];
    for &(c_in, c_out, stride) in &stages {
        for b in 0..blocks_per_stage {
            let (ci, st) = if b == 0 { (c_in, stride) } else { (c_out, 1) };
            net.push(NetLayer::Residual(ResidualBlock::new(ci, c_out, st, s)));
        }
    }
    net.push(NetLayer::AvgPool(AvgPool2d::new(8))); // 64×1×1
    net.push(NetLayer::Linear(Linear::new(64, 10, s)));
    net
}

/// Shape of one linear layer for op counting: the conv tuple of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Feature map height = width.
    pub hw: usize,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel width (1 for FC viewed as conv).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub padding: usize,
}

impl ConvShape {
    /// Output spatial dimension.
    pub fn out_hw(&self) -> usize {
        (self.hw + 2 * self.padding - self.k) / self.stride + 1
    }

    /// MAC count of the layer.
    pub fn macs(&self) -> u64 {
        (self.out_hw() * self.out_hw()) as u64
            * self.c_out as u64
            * self.c_in as u64
            * (self.k * self.k) as u64
    }

    /// Number of output activations.
    pub fn outputs(&self) -> u64 {
        (self.out_hw() * self.out_hw() * self.c_out) as u64
    }
}

/// Kind of non-linearity following a linear layer (drives the FBS count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonLinear {
    /// Single-LUT activation (ReLU & friends) fused with remap.
    Activation,
    /// Average pooling (one LUT for the divide).
    AvgPool {
        /// Kernel size.
        k: usize,
    },
    /// Max pooling (max-tree: O(k²) LUT passes per window).
    MaxPool {
        /// Kernel size.
        k: usize,
    },
    /// Softmax (exp LUT + inverse LUT + one CMult).
    Softmax,
    /// Nothing (final logits).
    None,
}

/// One layer of a [`ModelSpec`].
#[derive(Debug, Clone, Copy)]
pub struct SpecLayer {
    /// The linear part's shape.
    pub conv: ConvShape,
    /// The non-linearity after it.
    pub act: NonLinear,
}

/// Shape-level description of a model: enough to drive Tables 2/3/6-9 and
/// the cycle-level simulator without any weights.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Model identity.
    pub name: &'static str,
    /// Layers in order.
    pub layers: Vec<SpecLayer>,
}

impl ModelSpec {
    /// The MNIST toy CNN.
    pub fn mnist() -> Self {
        Self {
            name: "MNIST",
            layers: vec![
                SpecLayer {
                    conv: ConvShape {
                        hw: 28,
                        c_in: 1,
                        c_out: 5,
                        k: 5,
                        stride: 2,
                        padding: 2,
                    },
                    act: NonLinear::Activation,
                },
                SpecLayer {
                    conv: ConvShape {
                        hw: 1,
                        c_in: 980,
                        c_out: 64,
                        k: 1,
                        stride: 1,
                        padding: 0,
                    },
                    act: NonLinear::Activation,
                },
                SpecLayer {
                    conv: ConvShape {
                        hw: 1,
                        c_in: 64,
                        c_out: 10,
                        k: 1,
                        stride: 1,
                        padding: 0,
                    },
                    act: NonLinear::Softmax,
                },
            ],
        }
    }

    /// LeNet-5 (ReLU variant with max pooling).
    pub fn lenet() -> Self {
        Self {
            name: "LeNet",
            layers: vec![
                SpecLayer {
                    conv: ConvShape {
                        hw: 28,
                        c_in: 1,
                        c_out: 6,
                        k: 5,
                        stride: 1,
                        padding: 2,
                    },
                    act: NonLinear::Activation,
                },
                SpecLayer {
                    conv: ConvShape {
                        hw: 28,
                        c_in: 6,
                        c_out: 6,
                        k: 1,
                        stride: 1,
                        padding: 0,
                    },
                    act: NonLinear::MaxPool { k: 2 },
                },
                SpecLayer {
                    conv: ConvShape {
                        hw: 14,
                        c_in: 6,
                        c_out: 16,
                        k: 5,
                        stride: 1,
                        padding: 0,
                    },
                    act: NonLinear::Activation,
                },
                SpecLayer {
                    conv: ConvShape {
                        hw: 10,
                        c_in: 16,
                        c_out: 16,
                        k: 1,
                        stride: 1,
                        padding: 0,
                    },
                    act: NonLinear::MaxPool { k: 2 },
                },
                SpecLayer {
                    conv: ConvShape {
                        hw: 1,
                        c_in: 400,
                        c_out: 120,
                        k: 1,
                        stride: 1,
                        padding: 0,
                    },
                    act: NonLinear::Activation,
                },
                SpecLayer {
                    conv: ConvShape {
                        hw: 1,
                        c_in: 120,
                        c_out: 10,
                        k: 1,
                        stride: 1,
                        padding: 0,
                    },
                    act: NonLinear::Softmax,
                },
            ],
        }
    }

    /// CIFAR ResNet (3 blocks/stage → ResNet-20, 9 → ResNet-56).
    pub fn resnet(blocks_per_stage: usize) -> Self {
        let name = if blocks_per_stage == 3 {
            "ResNet-20"
        } else if blocks_per_stage == 9 {
            "ResNet-56"
        } else {
            "ResNet-n"
        };
        let mut layers = vec![SpecLayer {
            conv: ConvShape {
                hw: 32,
                c_in: 3,
                c_out: 16,
                k: 3,
                stride: 1,
                padding: 1,
            },
            act: NonLinear::Activation,
        }];
        let stages = [
            (16usize, 16usize, 1usize, 32usize),
            (16, 32, 2, 32),
            (32, 64, 2, 16),
        ];
        for &(c_in, c_out, stride, hw) in &stages {
            for b in 0..blocks_per_stage {
                let (ci, st, h) = if b == 0 {
                    (c_in, stride, hw)
                } else {
                    (c_out, 1, hw / stride)
                };
                // two 3×3 convs per block (skip conv counted when present)
                layers.push(SpecLayer {
                    conv: ConvShape {
                        hw: h,
                        c_in: ci,
                        c_out,
                        k: 3,
                        stride: st,
                        padding: 1,
                    },
                    act: NonLinear::Activation,
                });
                layers.push(SpecLayer {
                    conv: ConvShape {
                        hw: h / st,
                        c_in: c_out,
                        c_out,
                        k: 3,
                        stride: 1,
                        padding: 1,
                    },
                    act: NonLinear::Activation,
                });
                if b == 0 && (stride != 1 || c_in != c_out) {
                    layers.push(SpecLayer {
                        conv: ConvShape {
                            hw: h,
                            c_in: ci,
                            c_out,
                            k: 1,
                            stride: st,
                            padding: 0,
                        },
                        act: NonLinear::None,
                    });
                }
            }
        }
        layers.push(SpecLayer {
            conv: ConvShape {
                hw: 8,
                c_in: 64,
                c_out: 64,
                k: 1,
                stride: 1,
                padding: 0,
            },
            act: NonLinear::AvgPool { k: 8 },
        });
        layers.push(SpecLayer {
            conv: ConvShape {
                hw: 1,
                c_in: 64,
                c_out: 10,
                k: 1,
                stride: 1,
                padding: 0,
            },
            act: NonLinear::Softmax,
        });
        Self { name, layers }
    }

    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.conv.macs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn models_produce_ten_logits() {
        let mut s = Sampler::from_seed(21);
        for kind in [ModelKind::Mnist, ModelKind::LeNet] {
            let mut net = kind.build(&mut s);
            let shape = kind.input_shape();
            let y = net.forward(&Tensor::zeros(&shape));
            assert_eq!(y.len(), 10, "{}", kind.name());
        }
    }

    #[test]
    fn resnet20_shape_flow() {
        let mut s = Sampler::from_seed(22);
        let mut net = ModelKind::ResNet20.build(&mut s);
        let y = net.forward(&Tensor::zeros(&[3, 32, 32]));
        assert_eq!(y.len(), 10);
        // 1 stem conv+relu + 9 blocks + pool + fc = 13 top-level layers
        assert_eq!(net.layers.len(), 13);
    }

    #[test]
    fn resnet_specs_match_paper_depth() {
        // ResNet-20: 19 conv layers + 1 FC (paper) — we also count the 2
        // skip 1×1 convs and the pooling pseudo-layer separately.
        let spec = ModelSpec::resnet(3);
        let convs_3x3 = spec.layers.iter().filter(|l| l.conv.k == 3).count();
        assert_eq!(convs_3x3, 19, "19 3×3 convolutions in ResNet-20");
        let spec56 = ModelSpec::resnet(9);
        let convs_3x3 = spec56.layers.iter().filter(|l| l.conv.k == 3).count();
        assert_eq!(convs_3x3, 55, "55 3×3 convolutions in ResNet-56");
    }

    #[test]
    fn macs_are_sane() {
        // ResNet-20 on CIFAR-10 is ~40.5M MACs in the literature.
        let m = ModelSpec::resnet(3).total_macs();
        assert!(m > 30_000_000 && m < 50_000_000, "ResNet-20 MACs = {m}");
        // ResNet-56 is ~126M.
        let m56 = ModelSpec::resnet(9).total_macs();
        assert!(
            m56 > 100_000_000 && m56 < 150_000_000,
            "ResNet-56 MACs = {m56}"
        );
    }

    #[test]
    fn table2_shapes_present_in_resnet() {
        // The conv shapes of Table 2 are exactly ResNet-20's distinct layer
        // shapes.
        let spec = ModelSpec::resnet(3);
        let expected = [
            (32usize, 3usize, 16usize, 3usize, 1usize, 1usize),
            (32, 16, 16, 3, 1, 1),
            (32, 16, 32, 1, 2, 0),
            (16, 32, 32, 3, 1, 1),
            (16, 32, 64, 1, 2, 0),
            (8, 64, 64, 3, 1, 1),
        ];
        for (hw, ci, co, k, s, p) in expected {
            assert!(
                spec.layers.iter().any(|l| {
                    let c = l.conv;
                    c.hw == hw
                        && c.c_in == ci
                        && c.c_out == co
                        && c.k == k
                        && c.stride == s
                        && c.padding == p
                }),
                "missing shape ({hw},{ci},{co},{k},{s},{p})"
            );
        }
    }
}
