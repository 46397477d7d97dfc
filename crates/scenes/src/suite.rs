//! The 15-scene LumiBench-analog suite.
//!
//! Every scene is a deterministic procedural stand-in for its LumiBench
//! namesake (the paper's Table 2), matched in *character* rather than
//! geometry: relative size ordering, open/closed topology, light setup
//! and clutter density. The 16th LumiBench scene (`park`) is omitted, as
//! in the paper ("would not finish after 3 days of simulation").

use crate::generators::{box_at, heightfield, icosphere, room, scatter_clutter};
use crate::query::{
    amr_cells, cell_tris, clustered_points, point_cloud_tris, surface_points, uniform_points,
    QueryDomain,
};
use crate::{Camera, Material, Scene, SceneBuilder, Sky};
use cooprt_math::{Aabb, Rgb, Vec3};

/// Identifier of one benchmark scene.
///
/// Variants are ordered as in the paper's Fig. 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SceneId {
    /// "Ray Tracing in One Weekend" final scene: small, open, spheres on
    /// a ground plane. Smallest tree in the suite (paper: 0.2 MB).
    Wknd,
    /// A ship on open water.
    Ship,
    /// The Stanford bunny: one dense object over a ground plane.
    Bunny,
    /// Sponza atrium: **closed** interior, minimal exposed sky — the
    /// highest SIMT efficiency and thus the least CoopRT headroom.
    Spnza,
    /// A chestnut tree: trunk plus a dense foliage canopy.
    Chsnt,
    /// A bathroom interior: closed room with a large area light.
    Bath,
    /// A reflective interior ("ref"): closed room with metallic walls.
    Ref,
    /// A carnival: sparse, tall, widely spaced structures under open sky
    /// with many lights — highly divergent, biggest CoopRT win.
    Crnvl,
    /// A fox in a large landscape: huge open extent, one detailed blob.
    Fox,
    /// A night party: open plaza, strings of small lights.
    Party,
    /// Springlands terrain.
    Sprng,
    /// A large landscape height-field.
    Lands,
    /// A forest: terrain plus many trees.
    Frst,
    /// A detailed car model: very dense compact geometry (paper: 1.2 GB).
    Car,
    /// A robot model: the largest tree in the suite (paper: 1.7 GB).
    Robot,
    /// Query scene: uniformly distributed point cloud (kNN / radius
    /// search workload; not part of the paper's rendering suite).
    Quni,
    /// Query scene: clustered (Gaussian-mixture) point cloud — dense
    /// hotspots with sparse voids, the divergence-heavy profile.
    Qclu,
    /// Query scene: surface-sampled point cloud (a lidar-like shell).
    Qsrf,
    /// Query scene: two-level AMR cell grid (point-in-cell containment,
    /// after Zellmann et al.).
    Qamr,
}

/// All scenes in the paper's Fig. 9 order.
pub const ALL_SCENES: [SceneId; 15] = [
    SceneId::Wknd,
    SceneId::Ship,
    SceneId::Bunny,
    SceneId::Spnza,
    SceneId::Chsnt,
    SceneId::Bath,
    SceneId::Ref,
    SceneId::Crnvl,
    SceneId::Fox,
    SceneId::Party,
    SceneId::Sprng,
    SceneId::Lands,
    SceneId::Frst,
    SceneId::Car,
    SceneId::Robot,
];

/// The spatial-query scenes (point clouds and the AMR grid). Not part
/// of [`ALL_SCENES`]: rendering matrices and paper figures stay pinned
/// to the 15-scene suite; query workloads opt in explicitly.
pub const QUERY_SCENES: [SceneId; 4] = [SceneId::Quni, SceneId::Qclu, SceneId::Qsrf, SceneId::Qamr];

/// The scene subset used by the paper's Fig. 17 (AO/SH shaders).
pub const PAPER_FIG17_SCENES: [SceneId; 14] = [
    SceneId::Wknd,
    SceneId::Ship,
    SceneId::Bunny,
    SceneId::Spnza,
    SceneId::Bath,
    SceneId::Ref,
    SceneId::Crnvl,
    SceneId::Fox,
    SceneId::Party,
    SceneId::Sprng,
    SceneId::Lands,
    SceneId::Frst,
    SceneId::Car,
    SceneId::Robot,
];

impl SceneId {
    /// Scene label as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SceneId::Wknd => "wknd",
            SceneId::Ship => "ship",
            SceneId::Bunny => "bunny",
            SceneId::Spnza => "spnza",
            SceneId::Chsnt => "chsnt",
            SceneId::Bath => "bath",
            SceneId::Ref => "ref",
            SceneId::Crnvl => "crnvl",
            SceneId::Fox => "fox",
            SceneId::Party => "party",
            SceneId::Sprng => "sprng",
            SceneId::Lands => "lands",
            SceneId::Frst => "frst",
            SceneId::Car => "car",
            SceneId::Robot => "robot",
            SceneId::Quni => "quni",
            SceneId::Qclu => "qclu",
            SceneId::Qsrf => "qsrf",
            SceneId::Qamr => "qamr",
        }
    }

    /// Deterministic RNG seed for the scene's generators.
    fn seed(self) -> u64 {
        0xC00B_0000 + self as u64
    }

    /// Relative geometric weight, chosen to preserve the paper's Table 2
    /// tree-size ordering at any fixed `detail`.
    fn clutter_base(self) -> usize {
        match self {
            SceneId::Wknd => 2,
            SceneId::Ship => 4,
            SceneId::Bunny => 7,
            SceneId::Spnza => 10,
            SceneId::Chsnt => 12,
            SceneId::Bath => 14,
            SceneId::Ref => 16,
            SceneId::Crnvl => 46,
            SceneId::Party => 28,
            SceneId::Sprng => 26,
            SceneId::Lands => 30,
            SceneId::Frst => 54,
            SceneId::Fox => 60,
            SceneId::Car => 100,
            SceneId::Robot => 135,
            // Query scenes: points (or cells) per detail level.
            SceneId::Quni => 40,
            SceneId::Qclu => 40,
            SceneId::Qsrf => 40,
            SceneId::Qamr => 24,
        }
    }

    /// Grid side length for a height-field whose triangle count is
    /// roughly `tris_per_detail * detail` (linear in detail, like the
    /// clutter, so the Table 2 size ordering holds at every detail).
    fn hf_grid(detail: u32, tris_per_detail: u32) -> usize {
        let tris = (tris_per_detail * detail) as f64;
        2 + (tris / 2.0).sqrt().ceil() as usize
    }

    /// Builds the scene at the given `detail` level.
    ///
    /// Triangle count grows roughly linearly with `detail`; `detail = 8`
    /// yields suite sizes from ~100 to ~3500 triangles, enough for the
    /// BVHs to exceed the simulated L1 capacity on the larger scenes.
    ///
    /// # Panics
    ///
    /// Panics if `detail == 0`.
    pub fn build(self, detail: u32) -> Scene {
        assert!(detail > 0, "detail must be at least 1");
        let n = self.clutter_base() * detail as usize;
        let seed = self.seed();
        let gray = Material::Lambertian {
            albedo: Rgb::splat(0.5),
        };
        let tan = Material::Lambertian {
            albedo: Rgb::new(0.7, 0.6, 0.5),
        };
        let green = Material::Lambertian {
            albedo: Rgb::new(0.3, 0.6, 0.3),
        };
        let mirror = Material::Metal {
            albedo: Rgb::splat(0.9),
            fuzz: 0.05,
        };
        let glow = Rgb::new(6.0, 5.5, 5.0);

        match self {
            SceneId::Wknd => {
                // Spheres-on-a-plane under a daylight sky.
                let cam =
                    Camera::look_at(Vec3::new(13.0, 2.0, 3.0), Vec3::ZERO, Vec3::Y, 30.0, 1.0);
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        crate::quad(
                            Vec3::new(-50.0, 0.0, -50.0),
                            Vec3::X * 100.0,
                            Vec3::Z * 100.0,
                        ),
                        green,
                    )
                    .push(icosphere(Vec3::new(0.0, 1.0, 0.0), 1.0, 0), tan)
                    .push(icosphere(Vec3::new(-4.0, 1.0, 0.0), 1.0, 0), mirror)
                    .push(
                        icosphere(Vec3::new(4.0, 1.0, 0.0), 1.0, 0),
                        Material::Dielectric {
                            refraction_index: 1.5,
                        },
                    )
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-11.0, 0.2, -11.0), Vec3::new(11.0, 0.6, 11.0)),
                            n,
                            0.15..0.35,
                            seed,
                        ),
                        gray,
                    )
                    .build()
            }
            SceneId::Ship => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 6.0, 24.0),
                    Vec3::new(0.0, 2.0, 0.0),
                    Vec3::Y,
                    40.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    // Water.
                    .push(
                        crate::quad(
                            Vec3::new(-60.0, 0.0, -60.0),
                            Vec3::X * 120.0,
                            Vec3::Z * 120.0,
                        ),
                        Material::Metal {
                            albedo: Rgb::new(0.4, 0.5, 0.7),
                            fuzz: 0.3,
                        },
                    )
                    // Hull.
                    .push(
                        box_at(Vec3::new(0.0, 1.0, 0.0), Vec3::new(6.0, 1.0, 2.0)),
                        tan,
                    )
                    // Masts and rigging clutter.
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-5.0, 2.0, -1.5), Vec3::new(5.0, 9.0, 1.5)),
                            n,
                            0.1..0.4,
                            seed,
                        ),
                        gray,
                    )
                    .build()
            }
            SceneId::Bunny => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 3.0, 10.0),
                    Vec3::new(0.0, 2.0, 0.0),
                    Vec3::Y,
                    45.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        crate::quad(Vec3::new(-30.0, 0.0, -30.0), Vec3::X * 60.0, Vec3::Z * 60.0),
                        green,
                    )
                    // One dense blob of geometry — the "bunny".
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-2.0, 0.5, -2.0), Vec3::new(2.0, 4.5, 2.0)),
                            n,
                            0.1..0.3,
                            seed,
                        ),
                        tan,
                    )
                    .build()
            }
            SceneId::Spnza => {
                // Closed atrium: every wall present, black sky; indoor
                // panel lights. All rays bounce the full budget unless
                // they die on a light — the paper's high-efficiency case.
                let cam = Camera::look_at(
                    Vec3::new(0.0, 6.0, 16.0),
                    Vec3::new(0.0, 5.0, 0.0),
                    Vec3::Y,
                    55.0,
                    1.0,
                );
                let shell = Aabb::new(Vec3::new(-20.0, 0.0, -20.0), Vec3::new(20.0, 14.0, 20.0));
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::Black)
                    .closed(true)
                    .push(room(shell, true), tan)
                    // Columns.
                    .push(
                        box_at(Vec3::new(-10.0, 5.0, 0.0), Vec3::new(1.0, 5.0, 1.0)),
                        gray,
                    )
                    .push(
                        box_at(Vec3::new(10.0, 5.0, 0.0), Vec3::new(1.0, 5.0, 1.0)),
                        gray,
                    )
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-16.0, 0.5, -16.0), Vec3::new(16.0, 9.0, 16.0)),
                            n,
                            0.2..0.6,
                            seed,
                        ),
                        gray,
                    )
                    // Two small ceiling lights.
                    .push_light(
                        Vec3::new(-6.0, 13.9, -6.0),
                        Vec3::X * 2.0,
                        Vec3::Z * 2.0,
                        glow,
                    )
                    .push_light(
                        Vec3::new(4.0, 13.9, 4.0),
                        Vec3::X * 2.0,
                        Vec3::Z * 2.0,
                        glow,
                    )
                    .build()
            }
            SceneId::Chsnt => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 5.0, 22.0),
                    Vec3::new(0.0, 7.0, 0.0),
                    Vec3::Y,
                    45.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        crate::quad(Vec3::new(-40.0, 0.0, -40.0), Vec3::X * 80.0, Vec3::Z * 80.0),
                        green,
                    )
                    // Trunk.
                    .push(
                        box_at(Vec3::new(0.0, 3.0, 0.0), Vec3::new(0.8, 3.0, 0.8)),
                        tan,
                    )
                    // Canopy: dense foliage blob.
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-5.0, 6.0, -5.0), Vec3::new(5.0, 13.0, 5.0)),
                            n,
                            0.2..0.5,
                            seed,
                        ),
                        green,
                    )
                    .build()
            }
            SceneId::Bath => {
                // Closed room, one large area light; Fig. 11's example
                // warp (13 inactive threads) comes from this scene.
                let cam = Camera::look_at(
                    Vec3::new(0.0, 4.0, 11.0),
                    Vec3::new(0.0, 3.0, 0.0),
                    Vec3::Y,
                    50.0,
                    1.0,
                );
                let shell = Aabb::new(Vec3::new(-12.0, 0.0, -12.0), Vec3::new(12.0, 8.0, 12.0));
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::Black)
                    .closed(true)
                    .push(
                        room(shell, true),
                        Material::Lambertian {
                            albedo: Rgb::splat(0.75),
                        },
                    )
                    // Tub, sink, fixtures.
                    .push(
                        box_at(Vec3::new(-5.0, 1.0, -5.0), Vec3::new(3.0, 1.0, 1.5)),
                        gray,
                    )
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-10.0, 0.3, -10.0), Vec3::new(10.0, 5.0, 10.0)),
                            n,
                            0.15..0.45,
                            seed,
                        ),
                        gray,
                    )
                    // Large ceiling light: paths die on it often.
                    .push_light(
                        Vec3::new(-4.0, 7.9, -4.0),
                        Vec3::X * 8.0,
                        Vec3::Z * 8.0,
                        glow,
                    )
                    .build()
            }
            SceneId::Ref => {
                // Closed, mirrored interior: long specular chains.
                let cam = Camera::look_at(
                    Vec3::new(0.0, 4.0, 13.0),
                    Vec3::new(0.0, 3.0, 0.0),
                    Vec3::Y,
                    50.0,
                    1.0,
                );
                let shell = Aabb::new(Vec3::new(-14.0, 0.0, -14.0), Vec3::new(14.0, 9.0, 14.0));
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::Black)
                    .closed(true)
                    .push(room(shell, true), mirror)
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-11.0, 0.3, -11.0), Vec3::new(11.0, 6.0, 11.0)),
                            n,
                            0.2..0.5,
                            seed,
                        ),
                        tan,
                    )
                    .push_light(
                        Vec3::new(-2.0, 8.9, -2.0),
                        Vec3::X * 4.0,
                        Vec3::Z * 4.0,
                        glow,
                    )
                    .build()
            }
            SceneId::Crnvl => {
                // The paper's most divergent scene: sparse tall
                // structures under open sky, many lights.
                let cam = Camera::look_at(
                    Vec3::new(0.0, 9.0, 20.0),
                    Vec3::new(0.0, 11.0, 0.0),
                    Vec3::Y,
                    55.0,
                    1.0,
                );
                let mut b = SceneBuilder::new(self.name(), cam)
                    .sky(Sky::Gradient {
                        horizon: Rgb::new(0.2, 0.1, 0.3),
                        zenith: Rgb::new(0.02, 0.02, 0.08),
                    })
                    .push(
                        crate::quad(
                            Vec3::new(-80.0, 0.0, -80.0),
                            Vec3::X * 160.0,
                            Vec3::Z * 160.0,
                        ),
                        gray,
                    );
                // A dense fairground floor: primary rays mostly hit
                // *something* with a deep traversal, then escape to the
                // night sky after a bounce or two.
                b = b.push(
                    scatter_clutter(
                        Aabb::new(Vec3::new(-10.0, 0.2, -10.0), Vec3::new(10.0, 1.8, 10.0)),
                        n / 2,
                        0.04..0.16,
                        seed + 17,
                    ),
                    gray,
                );
                // Widely spaced tall "rides".
                for (i, x) in [-10.5f32, -3.5, 3.5, 10.5].iter().enumerate() {
                    b = b.push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(x - 2.0, 0.5, -2.0), Vec3::new(x + 2.0, 21.0, 2.0)),
                            n / 8,
                            0.04..0.16,
                            seed + i as u64,
                        ),
                        tan,
                    );
                    b = b.push_light(
                        Vec3::new(x - 1.0, 18.0, 0.0),
                        Vec3::X * 2.0,
                        Vec3::Z * 2.0,
                        glow,
                    );
                }
                b.build()
            }
            SceneId::Fox => {
                // Vast open extent; one dense detailed blob off-center.
                let cam = Camera::look_at(
                    Vec3::new(0.0, 4.0, 30.0),
                    Vec3::new(0.0, 2.0, 0.0),
                    Vec3::Y,
                    50.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        {
                            let g = Self::hf_grid(detail, 190);
                            heightfield(g, g, 8.0, 1.2, seed)
                        },
                        green,
                    )
                    // The fox: dense small geometry.
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-4.0, 1.2, -4.0), Vec3::new(4.0, 6.0, 4.0)),
                            n,
                            0.05..0.2,
                            seed + 1,
                        ),
                        Material::Lambertian {
                            albedo: Rgb::new(0.8, 0.4, 0.1),
                        },
                    )
                    .build()
            }
            SceneId::Party => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 5.0, 28.0),
                    Vec3::new(0.0, 4.0, 0.0),
                    Vec3::Y,
                    50.0,
                    1.0,
                );
                let mut b = SceneBuilder::new(self.name(), cam)
                    .sky(Sky::Gradient {
                        horizon: Rgb::new(0.15, 0.1, 0.2),
                        zenith: Rgb::new(0.01, 0.01, 0.05),
                    })
                    .push(
                        crate::quad(
                            Vec3::new(-50.0, 0.0, -50.0),
                            Vec3::X * 100.0,
                            Vec3::Z * 100.0,
                        ),
                        gray,
                    )
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-14.0, 0.3, -14.0), Vec3::new(14.0, 7.0, 14.0)),
                            n,
                            0.1..0.35,
                            seed,
                        ),
                        tan,
                    );
                // Strings of small lights.
                for i in 0..8 {
                    let x = -14.0 + 4.0 * i as f32;
                    b = b.push_light(Vec3::new(x, 8.0, -8.0), Vec3::X * 0.8, Vec3::Z * 0.8, glow);
                }
                b.build()
            }
            SceneId::Sprng => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 10.0, 50.0),
                    Vec3::new(0.0, 2.0, 0.0),
                    Vec3::Y,
                    50.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        {
                            let g = Self::hf_grid(detail, 130);
                            heightfield(g, g, 5.0, 2.5, seed)
                        },
                        green,
                    )
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-40.0, 1.5, -40.0), Vec3::new(40.0, 6.0, 40.0)),
                            n,
                            0.2..0.6,
                            seed + 1,
                        ),
                        tan,
                    )
                    .build()
            }
            SceneId::Lands => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 14.0, 70.0),
                    Vec3::new(0.0, 2.0, 0.0),
                    Vec3::Y,
                    55.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        {
                            let g = Self::hf_grid(detail, 240);
                            heightfield(g, g, 5.0, 6.0, seed)
                        },
                        green,
                    )
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-60.0, 2.0, -60.0), Vec3::new(60.0, 10.0, 60.0)),
                            n,
                            0.3..0.9,
                            seed + 1,
                        ),
                        gray,
                    )
                    .build()
            }
            SceneId::Frst => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 6.0, 45.0),
                    Vec3::new(0.0, 5.0, 0.0),
                    Vec3::Y,
                    50.0,
                    1.0,
                );
                let mut b = SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        {
                            let g = Self::hf_grid(detail, 130);
                            heightfield(g, g, 5.0, 1.5, seed)
                        },
                        green,
                    );
                // Trees: trunk + canopy each.
                let trees = 10;
                for i in 0..trees {
                    let x = -28.0 + 6.5 * i as f32;
                    let z = if i % 2 == 0 { -8.0 } else { 8.0 };
                    b = b.push(box_at(Vec3::new(x, 3.5, z), Vec3::new(0.5, 2.5, 0.5)), tan);
                    b = b.push(
                        scatter_clutter(
                            Aabb::new(
                                Vec3::new(x - 2.5, 6.0, z - 2.5),
                                Vec3::new(x + 2.5, 11.0, z + 2.5),
                            ),
                            n / trees,
                            0.2..0.5,
                            seed + 2 + i as u64,
                        ),
                        green,
                    );
                }
                b.build()
            }
            SceneId::Car => {
                let cam = Camera::look_at(
                    Vec3::new(8.0, 3.0, 12.0),
                    Vec3::new(0.0, 1.0, 0.0),
                    Vec3::Y,
                    40.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        crate::quad(Vec3::new(-40.0, 0.0, -40.0), Vec3::X * 80.0, Vec3::Z * 80.0),
                        gray,
                    )
                    // Extremely dense compact body.
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-3.5, 0.2, -1.8), Vec3::new(3.5, 2.6, 1.8)),
                            n,
                            0.04..0.15,
                            seed,
                        ),
                        Material::Metal {
                            albedo: Rgb::new(0.7, 0.1, 0.1),
                            fuzz: 0.1,
                        },
                    )
                    .build()
            }
            SceneId::Robot => {
                let cam = Camera::look_at(
                    Vec3::new(0.0, 6.0, 16.0),
                    Vec3::new(0.0, 5.0, 0.0),
                    Vec3::Y,
                    45.0,
                    1.0,
                );
                SceneBuilder::new(self.name(), cam)
                    .sky(Sky::daylight())
                    .push(
                        crate::quad(Vec3::new(-40.0, 0.0, -40.0), Vec3::X * 80.0, Vec3::Z * 80.0),
                        gray,
                    )
                    // Tall, very dense body.
                    .push(
                        scatter_clutter(
                            Aabb::new(Vec3::new(-2.5, 0.2, -2.5), Vec3::new(2.5, 11.0, 2.5)),
                            n,
                            0.04..0.18,
                            seed,
                        ),
                        mirror,
                    )
                    .build()
            }
            SceneId::Quni => {
                let region = Aabb::new(Vec3::splat(-8.0), Vec3::splat(8.0));
                Self::point_scene(self.name(), uniform_points(region, n, seed), 1.5, 8)
            }
            SceneId::Qclu => {
                let region = Aabb::new(Vec3::splat(-8.0), Vec3::splat(8.0));
                Self::point_scene(
                    self.name(),
                    clustered_points(region, n, 6, 1.2, seed),
                    1.0,
                    8,
                )
            }
            SceneId::Qsrf => Self::point_scene(
                self.name(),
                surface_points(Vec3::ZERO, 6.0, n, seed),
                0.8,
                8,
            ),
            SceneId::Qamr => {
                // Grid side from the cell budget, rounded up to even
                // (the refined octant needs whole coarse cells).
                let g = ((n as f32).cbrt().ceil() as usize).max(2);
                let g = g + (g % 2);
                let region = Aabb::new(Vec3::splat(-8.0), Vec3::splat(8.0));
                let cells = amr_cells(region, g);
                let tris = cell_tris(&cells);
                SceneBuilder::new(self.name(), Self::query_camera())
                    .sky(Sky::Gradient {
                        horizon: Rgb::new(0.25, 0.25, 0.3),
                        zenith: Rgb::new(0.05, 0.05, 0.1),
                    })
                    .query(QueryDomain::cells(cells, 0))
                    .push(tris, gray)
                    .build()
            }
        }
    }

    /// Shared camera for the query scenes (render kinds still work on
    /// them; queries never read it).
    fn query_camera() -> Camera {
        Camera::look_at(Vec3::new(16.0, 14.0, 16.0), Vec3::ZERO, Vec3::Y, 45.0, 1.0)
    }

    /// Assembles a point-cloud query scene: octahedron primitives over
    /// the points, with the matching [`QueryDomain`] attached.
    fn point_scene(name: &str, points: Vec<Vec3>, radius: f32, k: usize) -> Scene {
        let tris = point_cloud_tris(&points, radius);
        SceneBuilder::new(name, Self::query_camera())
            .sky(Sky::Gradient {
                horizon: Rgb::new(0.25, 0.25, 0.3),
                zenith: Rgb::new(0.05, 0.05, 0.1),
            })
            .query(QueryDomain::points(points, radius, k, 0))
            .push(
                tris,
                Material::Lambertian {
                    albedo: Rgb::splat(0.6),
                },
            )
            .build()
    }
}

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BvhImage::content_hash` of every scene at detail 4 and at the
    /// default detail 32, as recorded before internal nodes stored their
    /// children in chunks. The hash is serve's `bvh_hash` and a trace
    /// header field, so a change of layout must leave it alone.
    const CONTENT_HASHES: [(u32, [(SceneId, u64); 19]); 2] = [
        (
            4,
            [
                (SceneId::Wknd, 0xe29bb3f92d5a3d9f),
                (SceneId::Ship, 0x2a510c5cecbdbdeb),
                (SceneId::Bunny, 0x738f8aa25a72552f),
                (SceneId::Spnza, 0x65125539715a84ea),
                (SceneId::Chsnt, 0x2034a164faf6da06),
                (SceneId::Bath, 0x1d356785002b4184),
                (SceneId::Ref, 0x88906dcb995df7ff),
                (SceneId::Crnvl, 0x347d07c03c432834),
                (SceneId::Fox, 0x4a9968944c0fd61a),
                (SceneId::Party, 0x30d893a3edb28f56),
                (SceneId::Sprng, 0x7df370f80729200d),
                (SceneId::Lands, 0x1f048b515d6eb64f),
                (SceneId::Frst, 0xa0b37410bb87b2c9),
                (SceneId::Car, 0x7e588f075ebc52fe),
                (SceneId::Robot, 0x5ef22ae060a886c8),
                (SceneId::Quni, 0xb1cb048db71b888f),
                (SceneId::Qclu, 0xc2ab448cea09ec24),
                (SceneId::Qsrf, 0x94f8163c7aaa17dd),
                (SceneId::Qamr, 0x5c0815e4286e2cc0),
            ],
        ),
        (
            32,
            [
                (SceneId::Wknd, 0xa9e92a348bed16f0),
                (SceneId::Ship, 0xde3ac95363225912),
                (SceneId::Bunny, 0xd1838b0a9ce700e2),
                (SceneId::Spnza, 0xdd20a88c9ca66f40),
                (SceneId::Chsnt, 0xff0b6e0915458cf8),
                (SceneId::Bath, 0x29cd2db5bd69c51e),
                (SceneId::Ref, 0x041ae8e7a66695f8),
                (SceneId::Crnvl, 0x1964bf15e45beb50),
                (SceneId::Fox, 0xf8ce504ba238cb45),
                (SceneId::Party, 0x52ee69749fde377d),
                (SceneId::Sprng, 0x3e614922de43554c),
                (SceneId::Lands, 0xf1424e4f01768404),
                (SceneId::Frst, 0xe81aa8b99943ac20),
                (SceneId::Car, 0x7c683120f2d1a42d),
                (SceneId::Robot, 0x6d1c686bd5a12d9c),
                (SceneId::Quni, 0xba407a744968cfc9),
                (SceneId::Qclu, 0x12b247568ca66134),
                (SceneId::Qsrf, 0xb36a6192bf77dcfe),
                (SceneId::Qamr, 0xdc6b287a530b3969),
            ],
        ),
    ];

    #[test]
    fn content_hashes_are_pinned() {
        for (detail, pins) in CONTENT_HASHES {
            for (id, want) in pins {
                let got = id.build(detail).image.content_hash();
                assert_eq!(got, want, "{id} at detail {detail}: {got:#018x}");
            }
        }
    }

    #[test]
    fn all_scenes_build_and_are_nonempty() {
        for id in ALL_SCENES {
            let scene = id.build(2);
            assert!(scene.triangle_count() > 10, "{id} too small");
            assert_eq!(scene.name, id.name());
            assert_eq!(scene.materials.len(), scene.triangle_count());
        }
    }

    #[test]
    fn scene_builds_are_deterministic() {
        let a = SceneId::Crnvl.build(3);
        let b = SceneId::Crnvl.build(3);
        assert_eq!(a.image.triangles(), b.image.triangles());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn closed_scenes_match_the_paper() {
        assert!(SceneId::Spnza.build(2).is_closed());
        assert!(SceneId::Bath.build(2).is_closed());
        assert!(SceneId::Ref.build(2).is_closed());
        assert!(!SceneId::Crnvl.build(2).is_closed());
        assert!(!SceneId::Wknd.build(2).is_closed());
    }

    #[test]
    fn tree_size_ordering_follows_table_2() {
        // wknd is the smallest; robot the largest; spnza < fox (Table 2).
        let detail = 3;
        let wknd = SceneId::Wknd.build(detail).stats.total_bytes;
        let spnza = SceneId::Spnza.build(detail).stats.total_bytes;
        let fox = SceneId::Fox.build(detail).stats.total_bytes;
        let robot = SceneId::Robot.build(detail).stats.total_bytes;
        assert!(wknd < spnza, "wknd {wknd} < spnza {spnza}");
        assert!(spnza < fox, "spnza {spnza} < fox {fox}");
        assert!(fox < robot, "fox {fox} < robot {robot}");
    }

    #[test]
    fn detail_scales_triangle_count() {
        let small = SceneId::Party.build(1).triangle_count();
        let big = SceneId::Party.build(4).triangle_count();
        assert!(
            big > 2 * small,
            "detail 4 ({big}) should dwarf detail 1 ({small})"
        );
    }

    #[test]
    fn lit_scenes_have_lights() {
        for id in [
            SceneId::Spnza,
            SceneId::Bath,
            SceneId::Ref,
            SceneId::Crnvl,
            SceneId::Party,
        ] {
            assert!(!id.build(2).lights.is_empty(), "{id} should have lights");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SceneId::Fox.to_string(), "fox");
        assert_eq!(format!("{}", SceneId::Wknd), "wknd");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL_SCENES
            .iter()
            .chain(QUERY_SCENES.iter())
            .map(|s| s.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_SCENES.len() + QUERY_SCENES.len());
    }

    #[test]
    fn query_scenes_build_with_matching_domains() {
        for id in QUERY_SCENES {
            let scene = id.build(2);
            assert_eq!(scene.name, id.name());
            let q = scene.query.as_ref().expect("query scenes carry a domain");
            if q.is_cells() {
                // Every cell contributes exactly 12 box triangles.
                assert_eq!(
                    scene.triangle_count(),
                    q.prim_base as usize + q.cells.len() * q.tris_per_prim as usize
                );
                assert!(q.points.is_empty());
            } else {
                // Every point contributes exactly 8 octahedron triangles.
                assert_eq!(
                    scene.triangle_count(),
                    q.prim_base as usize + q.points.len() * q.tris_per_prim as usize
                );
                assert_eq!(q.points.len(), id.clutter_base() * 2);
                assert!(q.radius > 0.0 && q.k > 0);
                // All data points inside the sampling bounds.
                for &p in &q.points {
                    assert!(q.bounds.contains(p), "{id}: point {p:?} outside bounds");
                }
            }
        }
    }

    #[test]
    fn query_scene_builds_are_deterministic() {
        for id in QUERY_SCENES {
            let a = id.build(2);
            let b = id.build(2);
            assert_eq!(
                a.image.content_hash(),
                b.image.content_hash(),
                "{id}: same seed must give a bitwise-identical BVH image"
            );
            assert_eq!(a.query, b.query, "{id}: domains must match");
        }
    }

    #[test]
    fn point_cloud_scene_round_trips_through_a_rebuild() {
        let scene = SceneId::Quni.build(2);
        let rebuilt = scene.rebuilt_with(cooprt_bvh::build_binary_median);
        // Different builder, same geometry and domain.
        assert_eq!(scene.image.triangles(), rebuilt.image.triangles());
        assert_eq!(scene.query, rebuilt.query);
        assert!(rebuilt.image.node_count() > 0);
    }
}
