open Flexile_te

let zero_loss ?options ~scheme ~graph scale =
  let base = match options with Some o -> o | None -> Builder.default_options in
  let inst = Builder.two_class ~options:{ base with Builder.low_scale = scale } ~graph () in
  let losses = Schemes.run ~jobs:base.Builder.jobs scheme inst in
  Metrics.perc_loss inst losses ~cls:1 <= 1e-4

(* the scale window the search bisects *)
let lo = 0.25
let hi = 4.0

let search ?options ?(steps = 6) ~scheme ~graph () =
  if not (zero_loss ?options ~scheme ~graph lo) then 0.
  else begin
    let lo = ref lo and hi = ref hi in
    if zero_loss ?options ~scheme ~graph !hi then !hi
    else begin
      for _ = 1 to steps do
        let mid = (!lo +. !hi) /. 2. in
        if zero_loss ?options ~scheme ~graph mid then lo := mid else hi := mid
      done;
      !lo
    end
  end
