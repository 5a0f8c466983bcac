open Sched_stats

let flow_uniform ~n ~m =
  Gen.make ~name:"uniform" ~sizes:(Dist.uniform ~lo:1. ~hi:10.) ~shape:Shape.identical ~n ~m ()

let flow_pareto ~n ~m =
  Gen.make ~name:"pareto-unrelated"
    ~sizes:(Dist.bounded_pareto ~shape:1.5 ~lo:1. ~hi:100.)
    ~shape:(Shape.unrelated ~spread:2.) ~n ~m ()

let flow_bimodal ~n ~m =
  Gen.make ~name:"bimodal-batched"
    ~arrivals:(Gen.Batched { every = 12.; size = max 1 (m * 2) })
    ~sizes:(Dist.bimodal ~lo:1. ~hi:50. ~p_hi:0.08)
    ~shape:Shape.identical ~n ~m ()

let flow_restricted ~n ~m =
  Gen.make ~name:"restricted" ~sizes:(Dist.uniform ~lo:1. ~hi:10.)
    ~shape:(Shape.restricted ~eligible_prob:0.5) ~n ~m ()

let flow_related ~n ~m =
  Gen.make ~name:"related"
    ~sizes:(Dist.uniform ~lo:1. ~hi:10.)
    ~shape:(Shape.related ~speeds:(Array.init (max 1 m) (fun i -> 1. +. (3. *. float_of_int i /. float_of_int (max 1 (m - 1))))))
    ~n ~m ()

let flow_clustered ~n ~m =
  Gen.make ~name:"clustered"
    ~sizes:(Dist.exponential ~mean:5.)
    ~shape:(Shape.clustered ~clusters:(max 1 (m / 2)) ~penalty:3.) ~n ~m ()

let flow_diurnal ~n ~m =
  Gen.make ~name:"diurnal"
    ~arrivals:(Gen.Diurnal { base_rate = 0.6 *. float_of_int m /. 5.5; amplitude = 0.9; period = 200. })
    ~sizes:(Dist.uniform ~lo:1. ~hi:10.)
    ~shape:(Shape.unrelated ~spread:1.5) ~n ~m ()

let flow_menu =
  [
    ("uniform", flow_uniform);
    ("pareto", flow_pareto);
    ("bimodal", flow_bimodal);
    ("restricted", flow_restricted);
    ("related", flow_related);
    ("clustered", flow_clustered);
  ]

let all_flow ~n ~m = List.map (fun (_, make) -> make ~n ~m) flow_menu

let weighted_energy ~n ~m ~alpha =
  Gen.make ~name:"weighted-energy"
    ~sizes:(Dist.uniform ~lo:1. ~hi:8.)
    ~weights:(Dist.bounded_pareto ~shape:1.8 ~lo:1. ~hi:20.)
    ~shape:(Shape.unrelated ~spread:1.5) ~alpha ~n ~m ()

let deadline_energy ~n ~m ~alpha =
  Gen.make ~name:"deadline-energy"
    ~arrivals:(Gen.Poisson (0.4 *. float_of_int m))
    ~sizes:(Dist.uniform ~lo:1. ~hi:6.)
    ~shape:(Shape.unrelated ~spread:1.5)
    ~deadlines:(Gen.Slot_laxity { min_slots = 2; max_slots = 16 })
    ~alpha ~n ~m ()

let tiny ~seed ~n ~m = Gen.instance (flow_uniform ~n ~m) ~seed

let default_seeds = [ 11; 23; 42; 77; 101 ]

let dist_menu =
  [
    ("uniform", Dist.uniform ~lo:1. ~hi:10.);
    ("exp", Dist.exponential ~mean:5.);
    ("pareto", Dist.bounded_pareto ~shape:1.5 ~lo:1. ~hi:100.);
    ("bimodal", Dist.bimodal ~lo:1. ~hi:50. ~p_hi:0.08);
    ("lognormal", Dist.lognormal ~mu:1.2 ~sigma:0.8);
    ("const", Dist.constant 5.);
  ]
