type result = {
  losses : Instance.losses;
  offline : Flexile_offline.result;
}

let run ?(config = Flexile_offline.default_config) inst =
  let offline = Flexile_offline.solve ~config inst in
  let losses =
    Flexile_online.run ~jobs:config.Flexile_offline.jobs inst ~offline
  in
  { losses; offline }
